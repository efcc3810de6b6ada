"""One set-up sample: cold import of monogen, then the first parse of each input.

Usage: python3 perfbench/coldstart.py SRC_DIR INPUT.json...

Prints the elapsed seconds.  Run in a fresh interpreter so the import is
cold; ``parse_input`` parses the JSON and runs ``require_valid``.
"""

import sys
import time


def main(argv):
    src, paths = argv[0], argv[1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from monogen.fixtures import parse_input

    for path in paths:
        parse_input(path)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
