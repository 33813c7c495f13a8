"""One workload round in a fresh interpreter; started by run.py.

    python3 bench/worker.py --workload W --seed N --launched T --tmp DIR
                            --result FILE [--setup-only | --trace FILE]

Imports uebkit from the checkout's src/ (never from an installed copy),
prepares the inputs, then runs the workload's operations between two
clock readings and checks their outputs after the second.  The round's
figures go to --result as JSON.  --launched is the CLOCK_MONOTONIC
reading taken just before this process was started, so setup_s covers
process start, interpreter, imports and input generation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_uebkit():
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import uebkit
    where = Path(uebkit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"uebkit was imported from {where}, not from {SRC}")


def layer_metrics(tr, ops: list) -> dict:
    """Per-module figures of one traced round, as {name: (value, unit)}."""
    from tracer import MODULES
    from workloads import json_bytes
    calls, secs, edges = tr.calls, tr.seconds, tr.edges
    out = {f"{m}.self_s": (tr.module_self[m], "s") for m in MODULES}
    triples = calls("counterexample165.TensorTriple.__matmul__")
    slot = edges[("counterexample165.TensorTriple.__matmul__",
                  "fastcyc.CycMatrix.__matmul__")]
    pairs = edges[("nice.verify_nice", "nice.extract_cocycle")]
    nice_s = secs("nice.verify_nice")
    lookups = calls("nice.ProjectiveRep.matrix")
    out.update({
        "trace.check_s": (tr.check_s(), "s"),
        "trace.unattributed_s": (tr.unattributed_s(), "s"),
        "groups.is_automorphism.s": (secs("groups.is_automorphism"), "s"),
        "groups.center.s": (secs("groups.center"), "s"),
        "groups.heisenberg_compose.calls":
            (calls("groups.HeisenbergGroup.compose"), "count"),
        "fastcyc.matmul.calls": (calls("fastcyc.CycMatrix.__matmul__"), "count"),
        "fastcyc.matmul.s": (secs("fastcyc.CycMatrix.__matmul__"), "s"),
        "fastcyc.exact_fallback.calls":
            (edges[("fastcyc.CycMatrix.__matmul__", "fastcyc.to_exact")],
             "count"),
        "fastcyc.from_exact.calls": (calls("fastcyc.from_exact"), "count"),
        "fastcyc.from_exact.s": (secs("fastcyc.from_exact"), "s"),
        "fastcyc.to_exact.calls": (calls("fastcyc.to_exact"), "count"),
        "counterexample165.build_g165.s":
            (secs("counterexample165.build_g165"), "s"),
        "counterexample165.build_conjugators.s":
            (secs("counterexample165.build_conjugators"), "s"),
        "counterexample165.factor_map.s":
            (secs("counterexample165.FactorMap.__init__"), "s"),
        "counterexample165.verify_counterexample.s":
            (secs("counterexample165.verify_counterexample"), "s"),
        "counterexample165.exact_matrix.calls":
            (calls("counterexample165.FactorMap.exact_matrix"), "count"),
        "counterexample165.exact_matrix.s":
            (secs("counterexample165.FactorMap.exact_matrix"), "s"),
        "counterexample165.export_bundle.s":
            (secs("counterexample165.export_bundle"), "s"),
        "counterexample165.triple_matmul.calls": (triples, "count"),
        "counterexample165.slot_products_per_triple":
            (slot / triples if triples else 0.0, "ratio"),
        "nice.verify_nice.s": (nice_s, "s"),
        "nice.pairs_checked": (pairs, "count"),
        "nice.pairs_per_s": (pairs / nice_s if nice_s else 0.0, "1/s"),
        "nice.rep_cache_hit_ratio":
            (tr.counters["nice.rep_cache_hits"] / lookups if lookups else 0.0,
             "ratio"),
        "exactmat.matmul.calls":
            (calls("exactmat.ExactMatrix.__matmul__"), "count"),
        "exactmat.matmul.s": (secs("exactmat.ExactMatrix.__matmul__"), "s"),
        "exactmat.tensor.calls": (calls("exactmat.ExactMatrix.tensor"), "count"),
        "exactmat.equal_up_to_phase.calls":
            (calls("exactmat.ExactMatrix.equal_up_to_phase"), "count"),
        "cyclo.cyclotomic_mul.calls": (calls("cyclo.Cyclotomic.__mul__"), "count"),
        "cyclo.cyclotomic_init.calls":
            (calls("cyclo.Cyclotomic.__init__"), "count"),
        "cyclo.coeffs.calls": (calls("cyclo.Cyclotomic.coeffs"), "count"),
        "cyclo.phased_mul.calls": (calls("cyclo.PhasedScalar.__mul__"), "count"),
        "ueb.verify_ueb.s": (secs("ueb.verify_ueb"), "s"),
        "ueb.hs_inner.calls": (calls("exactmat.hs_inner"), "count"),
        "ueb.wickedness_witness.s": (secs("ueb.wickedness_witness"), "s"),
        "ueb.json.s": (secs("ueb.basis_to_json") + secs("ueb.basis_from_json"),
                       "s"),
        "induce.sparsity_check.s": (secs("induce.sparsity_check"), "s"),
        "cli.main.s": (secs("cli.main"), "s"),
        "cli.json_bytes_written": (json_bytes(ops, "out"), "bytes"),
        "cli.json_bytes_read": (json_bytes(ops, "in"), "bytes"),
    })
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace")
    args = p.parse_args(argv)

    try:
        _import_uebkit()
    except ImportError as e:
        print(f"worker: cannot import uebkit from the checkout: {e}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.tmp)
    setup_s = _monotonic() - args.launched
    result = {"setup_s": setup_s}
    if not args.setup_only:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if tracer:
            tracer.start()
        ops = workload.run(inputs)
        if tracer:
            tracer.stop()
            tracer.uninstall()
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            workload.check(inputs, ops)
        except Exception:
            # a malformed output can break a check; count it against
            # every operation rather than lose the round
            msg = "output check raised: " + traceback.format_exc(limit=3)
            for op in ops:
                op.problems.append(msg)
        result.update({
            "check_s": t1 - t0,
            "cpu_s": cpu1 - cpu0,
            "peak_rss_mib": rss_kib / 1024,
            "ops": [op.summary() for op in ops],
        })
        if tracer:
            layers = layer_metrics(tracer, ops)
            result["layers"] = layers
            tracer.write(args.trace, {
                "workload": args.workload, "seed": args.seed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in layers.items()}})
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
