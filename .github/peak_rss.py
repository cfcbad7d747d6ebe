"""Run one fsolink command, or one Python snippet, in a child process and
fail if its peak RSS is over a limit.

Usage: PYTHONPATH=src python .github/peak_rss.py LIMIT_MIB -- FSOLINK_ARGS...
       PYTHONPATH=src python .github/peak_rss.py LIMIT_MIB -c CODE [ARGS...]
"""

import os
import sys

CLI = "import sys; from fsolink.cli import main; sys.exit(main(sys.argv[1:]))"

if len(sys.argv) < 4 or sys.argv[2] not in ("--", "-c"):
    sys.exit("\n".join(__doc__.splitlines()[-2:]))
limit_mib = float(sys.argv[1])
code, args = (CLI, sys.argv[3:]) if sys.argv[2] == "--" else (sys.argv[3], sys.argv[4:])
# The child's own rusage: RUSAGE_CHILDREN would also count children of
# whatever process exec'd this script.
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code, *args], os.environ)
_, status, usage = os.wait4(pid, 0)
if status:
    sys.exit(f"child failed with exit code {os.waitstatus_to_exitcode(status)}")
peak_mib = usage.ru_maxrss / 1024
print(f"child peak RSS {peak_mib:.1f} MiB (limit {limit_mib:g} MiB)")
sys.exit(f"peak RSS {peak_mib:.1f} MiB exceeds {limit_mib:g} MiB" if peak_mib > limit_mib else 0)
