"""Self-test of the benchmark at smoke size.

Run from the root of a checkout: ``python3 bench/selftest.py``. For every
workload it runs ``run.py --smoke`` untraced and traced and checks that each
metric listed in BENCHMARK.json is emitted with its unit and that no op
failed. On the simulated workloads it also checks that the determinism digest
repeats for the same seed, traced or not, and differs for another seed. It
checks that the trace wrappers are gone after removal and that every metric
named in design.json exists. Exits 1 on the first failure.
"""

from __future__ import annotations

import fnmatch
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def bench(workload: str, trace: int, seed: int = SEED) -> tuple[dict, str | None]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    digest = next((line.split("digest: ", 1)[1] for line in lines if "digest: " in line), None)
    return json.loads(lines[-1]), digest


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metrics(label: str, result: dict, listed: list[dict]) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0, f"{label}: {result['failed']} of {result['attempted']} ops failed")
    for metric in listed:
        got = result["metrics"].get(metric["name"])
        check(got is not None, f"{label}: metric {metric['name']} missing")
        check(got["unit"] == metric["unit"], f"{label}: {metric['name']} in {got['unit']}, not {metric['unit']}")
        check(isinstance(got["value"], (int, float)), f"{label}: {metric['name']} is not a number")
    check(len(result["metrics"]) == len(listed), f"{label}: metrics not listed in BENCHMARK.json")


def check_wrappers_removed() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import kesic.device
    import kesic.isv
    import kesic.kdc
    import kesic.wire
    import spans

    def aliases() -> dict:
        return {
            "kdc.seal_json": kesic.kdc.seal_json,
            "isv.verify_ap": kesic.isv.verify_ap,
            "ServiceRequestG.decode": kesic.wire.ServiceRequestG.__dict__.get("decode"),
            "GeneralRot.handle_service": kesic.device.GeneralRot.__dict__["handle_service"],
        }

    before = aliases()
    tracer = spans.Tracer()
    tracer.install()
    wrapped = aliases()
    tracer.remove()
    missed = [name for name in before if wrapped[name] is before[name]]
    check(not missed, f"aliases not wrapped: {missed}")
    left = [name for name, value in aliases().items() if value is not before[name]]
    check(not left, f"wrappers left behind: {left}")


def check_design(spec: dict) -> None:
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]} | set(design["report_only_metrics"])
    layer = [m["name"] for m in spec["per_layer"]]
    check(set(design["workloads"]) == workloads, "design.json workloads differ from BENCHMARK.json")
    for row in design["layer_to_end_to_end"]:
        for pattern in row["layer_metrics"]:
            check(fnmatch.filter(layer, pattern), f"design.json names unknown layer metric {pattern}")
        for name in row["moves"]:
            check(name in e2e, f"design.json names unknown end-to-end metric {name}")
        for name in row["on"] + row["flat_on"]:
            check(name in workloads, f"design.json names unknown workload {name}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_design(spec)
    check_wrappers_removed()
    for workload in (w["name"] for w in spec["workloads"]):
        plain, digest = bench(workload, 0)
        check_metrics(f"{workload} trace=0", plain, spec["end_to_end"])
        traced, traced_digest = bench(workload, 1)
        check_metrics(f"{workload} trace=1", traced, spec["per_layer"])
        if workload != "live-sessions":
            check(digest is not None, f"{workload}: no digest printed")
            again, again_digest = bench(workload, 0)
            check(again_digest == digest, f"{workload}: digest {again_digest} != {digest} for one seed")
            check(traced_digest == digest, f"{workload}: tracing changed the digest")
            _, other = bench(workload, 0, seed=SEED + 1)
            check(other != digest, f"{workload}: digest ignores the seed")
        print(f"ok {workload}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
