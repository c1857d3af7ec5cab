#!/usr/bin/env python3
"""Run a command; fail if it exits non-zero or its peak RSS exceeds a bound.

    max_rss.py <max_mib> <command> [args...]

The peak is the kernel's high-water mark for the child (ru_maxrss), the
same number `/usr/bin/time -v` prints.
"""
import resource
import subprocess
import sys


def main() -> int:
    bound = float(sys.argv[1])
    code = subprocess.call(sys.argv[2:])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS {peak:.1f} MiB (bound {bound:g} MiB), exit {code}", file=sys.stderr)
    if code != 0:
        return code
    return 1 if peak > bound else 0


if __name__ == "__main__":
    sys.exit(main())
