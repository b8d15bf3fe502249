"""Rewrite bench/expected.json, the digests the benchmark checks outputs against.

    python3 bench/record_expected.py

Run it only when a change to the package is meant to change exact output
bytes, and say why in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import run, workloads as w  # noqa: E402
from bench.harness import run_child  # noqa: E402


def main() -> int:
    cf = run.load_package()
    families = {
        f"{t}{n}": cf.invariant_family(cf.build_root_system(t, n)) for t, n in w.FAMILY_CASES
    }
    restrictions = {
        name: cf.restrict_family(families[ambient], config, selection=selection)
        for name, ambient, config, selection in w._restriction_specs(cf)
    }
    orbit_sum = cf.orbit_sum_invariant(
        cf.build_root_system("F", 4), w.F4_ORBIT_VECTOR, w.F4_ORBIT_DEGREE
    )
    cli = {}
    for label, argv in w.CLI_CYCLE:
        if w.cli_kind(label) in w.CLI_DIGESTED:
            _, proc = run_child(["-m", "chevfiber.cli", *argv])
            if proc.returncode != 0:
                raise SystemExit(f"{label}: exit {proc.returncode}: {proc.stderr}")
            cli[label] = w.text_digest(proc.stdout)
    expected = {
        "families": {k: w.text_digest(w.family_text(f)) for k, f in families.items()},
        "restrictions": {k: w.text_digest(w.restriction_text(r)) for k, r in restrictions.items()},
        "orbit_sum_F4": w.text_digest(orbit_sum.to_text()),
        "cli": cli,
    }
    with open(w.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
