"""Rewrite golden.json: the terms `approx` selects on each approx workload's
default-seed input. Run only when the expected output legitimately changes:

    python3 bench/make_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.import_cli()
    golden = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, workload in run.WORKLOADS.items():
            if not isinstance(workload, run.Approx):
                continue
            op = workload.prepare(name, run.DEFAULT_SEED, Path(tmp))
            op.golden = None  # check everything but the old golden list
            _, problems, _ = op(cli)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            golden[name] = {
                "seed": run.DEFAULT_SEED,
                "n": workload.n,
                "terms": [[t["start"], t["length"], t["coefficient"]]
                          for t in json.loads(op.out.read_text())["terms"]],
            }
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
