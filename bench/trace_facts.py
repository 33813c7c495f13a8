"""Where the g165 time goes, read from a trace file alone.

    python3 bench/trace_facts.py bench/out/trace-g165-1650.json

Prints the share of build_g165 spent in groups.is_automorphism and the
share of verify_counterexample spent materializing dense 165 x 165
members (FactorMap.exact_matrix), both summed over the spans nested
under the named parent.
"""

from __future__ import annotations

import json
import sys


def share(doc: dict, part: str, whole: str) -> tuple[float, float]:
    """(seconds of `part` spans under a `whole` span, seconds of `whole`)."""
    names = doc["span_names"]
    spans = {s[0]: (s[1], names[s[2]], s[4] - s[3]) for s in doc["spans"]}

    def under(sid: int) -> bool:
        parent = spans[sid][0]
        while parent in spans:
            pname = spans[parent][1]
            if pname == part:
                return False  # counted at the outer call
            if pname == whole:
                return True
            parent = spans[parent][0]
        return False

    part_s = sum(d for sid, (_, n, d) in spans.items()
                 if n == part and under(sid))
    whole_s = sum(d for _, n, d in spans.values() if n == whole)
    return part_s, whole_s


FACTS = (
    ("groups.is_automorphism", "counterexample165.build_g165"),
    ("counterexample165.FactorMap.exact_matrix",
     "counterexample165.verify_counterexample"),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("spans_dropped"):
        print(f"warning: {doc['spans_dropped']} spans were not recorded",
              file=sys.stderr)
    for part, whole in FACTS:
        part_s, whole_s = share(doc, part, whole)
        if not whole_s:
            print(f"{whole}: no span in this trace")
            continue
        print(f"{part} in {whole}: {part_s:.2f} s of {whole_s:.2f} s "
              f"({100 * part_s / whole_s:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
