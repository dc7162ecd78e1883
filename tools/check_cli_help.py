#!/usr/bin/env python3
"""Assert a tool's --help documents every flag its parser accepts.

Extracts every ``--flag`` string literal from the tool's source (its
flag table is the only place flags are spelled) and checks each one,
plus the parser's own ``-h``, appears in the output of the built
binary's ``--help``. Because help and parser are generated from the
same table (src/common/cli.hh) this should be impossible to break —
this test guards the "same table" property itself against a future
hand-written special case.

Usage:
    check_cli_help.py <tool.cc> <tool-binary>
"""

import re
import subprocess
import sys
from pathlib import Path


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    source = Path(argv[1])
    binary = argv[2]

    text = source.read_text(encoding="utf-8")
    flags = sorted(set(re.findall(r"\"(--[a-z][a-z0-9-]*)\"", text)))
    flags += ["--help", "-h"]
    if len(flags) < 5:
        print(f"check_cli_help: only {len(flags)} flags extracted "
              f"from {source} — extraction regex broken?")
        return 1

    proc = subprocess.run([binary, "--help"], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        print(f"check_cli_help: {binary} --help exited "
              f"{proc.returncode}\n{proc.stderr}")
        return 1
    documented = set(re.findall(r"^  (--?[a-z][a-z0-9-]*)(?:, (-[a-z]))?",
                                proc.stdout, re.MULTILINE))
    documented = {f for pair in documented for f in pair if f}

    missing = [f for f in flags if f not in documented]
    for f in missing:
        print(f"check_cli_help: parser accepts {f} but --help "
              f"does not list it")
    if missing:
        return 1
    print(f"check_cli_help: all {len(flags)} flags of {source.name} "
          f"documented")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
