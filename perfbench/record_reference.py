"""Record the fingerprints and references that pinned seeds must reproduce.

    python3 perfbench/record_reference.py --seeds 1 2 3

Overwrites the entries for the given seeds, on every workload, in
perfbench/reference.json. Record again only when a workload is meant to
change; the benchmark aborts on a pinned seed whose instances or
references differ from what is recorded here.
"""

import argparse
import json

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    run.load_program()
    import workloads

    with open(run.RECORDED, encoding="utf-8") as fh:
        recorded = json.load(fh)
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            entry = run.references(name, seed)
            recorded.setdefault(name, {})[str(seed)] = entry
            print(f"recorded {name} seed {seed}: "
                  f"{len(entry['references'])} operations")
    with open(run.RECORDED, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
