"""One fresh-process set-up: import rkdual, then parse and validate documents.

Reads a JSON list of documents on stdin and prints the seconds from the
import to the last validated K-space.  ``run.py`` starts this script several
times and reports the median as ``setup_s``.

    python3 perfbench/setup_child.py SRC_DIR < documents.json
"""

import sys
import time


def main():
    text = sys.stdin.read()
    sys.path.insert(0, sys.argv[1])
    started = time.perf_counter()
    import json
    from rkdual.checks import parse_document
    for payload in json.loads(text):
        parse_document(payload)
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
