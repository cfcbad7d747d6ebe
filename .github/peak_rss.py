"""Run one fsolink command in a child process and fail if its peak RSS is
over a limit.

Usage: PYTHONPATH=src python .github/peak_rss.py LIMIT_MIB -- FSOLINK_ARGS...
"""

import resource
import subprocess
import sys

CLI = "import sys; from fsolink.cli import main; sys.exit(main(sys.argv[1:]))"

if len(sys.argv) < 4 or sys.argv[2] != "--":
    sys.exit(__doc__.splitlines()[-1])
limit_mib = float(sys.argv[1])
subprocess.run([sys.executable, "-c", CLI, *sys.argv[3:]], check=True)
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"child peak RSS {peak_mib:.1f} MiB (limit {limit_mib:g} MiB)")
sys.exit(f"peak RSS {peak_mib:.1f} MiB exceeds {limit_mib:g} MiB" if peak_mib > limit_mib else 0)
