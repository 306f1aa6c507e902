"""Oracle process of the benchmark: builds a seed's item list and computes
the references for the items a run attempted.  It runs as a separate
process so that sympy and mpmath never load into the measured process.

    python3 perfbench/oracle.py items --workload W --seed S --rounds R --dir D
    python3 perfbench/oracle.py refs --dir D --ids ID_FILE

`items` writes D/items.json (and the graph files under D/graphs);
`refs` adds the references of the listed item ids ("round:index", or
"probe:index" for the known-defect probe) to D/refs.json, reusing the
ones already there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import references  # noqa: E402
import workloads  # noqa: E402


def write_json(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def cmd_items(args):
    os.makedirs(args.dir, exist_ok=True)
    items = workloads.make_items(args.workload, args.seed, args.rounds,
                                 os.path.join(args.dir, "graphs"))
    write_json(os.path.join(args.dir, "items.json"), items)


def cmd_refs(args):
    with open(os.path.join(args.dir, "items.json"), encoding="utf-8") as fh:
        items = json.load(fh)
    with open(args.ids, encoding="utf-8") as fh:
        ids = json.load(fh)
    path = os.path.join(args.dir, "refs.json")
    refs = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    memo = {}
    for key in ids:
        if key in refs:
            continue
        r, i = key.split(":")
        item = (items["probe"] if r == "probe"
                else items["rounds"][int(r)])[int(i)]
        spec_key = json.dumps([item["kind"], item["spec"]], sort_keys=True)
        if spec_key not in memo:
            memo[spec_key] = references.reference(item)
        refs[key] = memo[spec_key]
    write_json(path, refs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("items")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=cmd_items)
    p = sub.add_parser("refs")
    p.add_argument("--dir", required=True)
    p.add_argument("--ids", required=True)
    p.set_defaults(fn=cmd_refs)
    args = ap.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
