"""Ownership-claim benchmark for fedzkp.

    python3 perfbench/run.py --workload claim --seed 1 --seconds 16 --trace 0

Run it from the root of a source checkout; it imports fedzkp from
``src/`` and writes under ``perfbench/out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def pin_to_one_core() -> None:
    """Run the whole benchmark on one core, with one BLAS thread; must precede numpy.

    Prover, verifier and training then share that core, and the reference
    loops (pace.py) measure the pace of the core the work runs on.  numpy
    is also told not to ask for transparent huge pages: whether a process
    gets them depends on the host's free memory, and on a 2-core VM it
    moved a 16 MB streaming loop by up to 20% from one process to the next
    (5% without them).
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def import_fedzkp_from_source() -> None:
    """Put the checkout's src/ first on the path; refuse any other fedzkp."""
    if not (SRC / "fedzkp" / "__init__.py").is_file():
        raise FileNotFoundError(f"fedzkp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fedzkp
    if Path(fedzkp.__file__).resolve().parent != SRC / "fedzkp":
        raise ImportError(f"fedzkp was imported from {fedzkp.__file__}, not {SRC}")


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")


def report(result: dict, layers: dict = None, breakdown: list = None,
           overhead: dict = None) -> None:
    """Human-readable lines; the machine-readable record goes to the JSON file."""
    ctx = result["context"]
    det = result["details"]
    print(f"workload={result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={int(result['trace'])} nproc={ctx['nproc']} cores_used={ctx['cores_used']} "
          f"python={ctx['python']} "
          f"numpy={ctx['numpy']} blas={ctx['blas']} "
          f"loadavg={ctx['loadavg_start']}->{ctx['loadavg_end']}")
    _print_table("end-to-end" + (" (traced)" if result["trace"] else ""), result["metrics"])
    _print_table("the same timings as wall time", {
        name: {"value": value, "unit": result["metrics"][name]["unit"]}
        for name, value in det["wall"].items()})
    pace = ctx["pace"]
    for name, ref in (("loop", "reference_s"), ("stream", "stream_reference_s")):
        print(f"  {name} loop: {pace[name + '_samples']} samples, median "
              f"{pace[name + '_median_s'] * 1e3:.2f} ms (min {pace[name + '_min_s'] * 1e3:.2f}, "
              f"max {pace[name + '_max_s'] * 1e3:.2f}); paced seconds assume "
              f"{pace[ref] * 1e3:.2f} ms")
    print(f"  latency_tail_s is p{det['latency_tail_percentile']:.1f} of {det['sessions']} "
          f"{det['session_kind']} sessions ({det['latency_tail_samples_beyond']} beyond)")
    print(f"  wire bytes/session {result['metrics']['wire_bytes_per_session']['value']:.0f} "
          f"vs costs.cost_report {det['paper_wire_bytes_per_session']:.0f} "
          f"(ratio {det['wire_ratio_to_paper']:.3f})")
    print(f"  err_n={det['err_n']} train calls={len(det['train_samples'])}")
    if layers is not None:
        _print_table("per-layer (per operation of the layer's kind)", layers)
    if breakdown:
        print(f"self time per {result['details']['primary_op']} "
              f"(blocking path, both threads)")
        for name, calls, self_s in breakdown:
            print(f"  {name:<34} {calls:>10.1f} calls {self_s * 1e3:>12.3f} ms")
    if overhead:
        print(f"tracing overhead vs untraced run (seed {overhead['untraced_seed']}):")
        for name, share in overhead["share"].items():
            print(f"  {name:<34} {share:+.1%}")
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for msg in result["failures"]:
        print(f"  FAILED: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="claim, forgery or train")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pin_to_one_core()
    try:
        import_fedzkp_from_source()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-trace{args.trace}"
    if not args.trace:
        result = workloads.run(args.workload, args.seed, args.seconds, out_dir)
        report(result)
        final_metrics = result["metrics"]
    else:
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            result = workloads.run(args.workload, args.seed, args.seconds, out_dir, tracer)
        primary = "train" if args.workload == "train" else "session"
        ops = result["details"]["op_counts"]
        final_metrics = spans.layer_metrics(tracer, ops, primary)
        breakdown = spans.self_time_breakdown(tracer, primary, ops[primary])
        result["details"]["primary_op"] = primary
        result["per_layer"] = final_metrics
        result["self_time_breakdown"] = breakdown
        result["missing_trace_targets"] = tracer.missing
        result["overhead"] = _overhead(result, out_dir / f"{args.workload}-trace0.json")
        tracer.dump(stem.with_suffix(".spans.jsonl"))
        report(result, final_metrics, breakdown[:15], result["overhead"])
    stem.with_suffix(".json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": final_metrics}))
    return 0


def _overhead(traced: dict, untraced_path: Path):
    """Relative change of each end-to-end metric, traced over untraced."""
    try:
        untraced = json.loads(untraced_path.read_text())
    except (OSError, ValueError):
        return None
    share = {}
    for name, m in traced["metrics"].items():
        base = untraced["metrics"].get(name, {}).get("value")
        if base:
            share[name] = m["value"] / base - 1.0
    return {"untraced_seed": untraced["seed"], "share": share}


if __name__ == "__main__":
    sys.exit(main())
