"""One set-up sample, run in a fresh interpreter and timed from outside.

Imports msslab, loads and parses the workload input, assembles the
structures the sweeps will run on, then exits. For a search that means
building the SearchSpec and taking the first enumerated structure.

Usage: python3 setup_child.py COMMAND INPUT.json SEED
"""

import json
import sys

import msslab  # noqa: F401  (the import is part of the measured set-up)
from msslab.config import parse_config
from msslab.search import enumerate_structures

from workloads import search_spec


def main(command: str, path: str, seed: int) -> None:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if command == "search":
        next(enumerate_structures(search_spec(document, seed)))
        return
    cfg = parse_config(document)
    cfg.structure(None)
    for spec in cfg.deltas:
        cfg.structure(spec)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
