"""One timed round of a workload, in a fresh process.

    python3 bench/worker.py <round.json>

``round.json`` holds the config path, the CLI argument lists and their
output directories.  The worker first times set-up: importing the package's
CLI plus loading and validating the config.  It then runs every command
through ``socialml.cli.main`` in this process and times the first call to
the last return; both are wall times.  With a ``trace`` path in
``round.json`` the layer modules are wrapped before the commands run (see
``tracing.py``) and the spans are written there.  The last line of standard
output is one JSON object with the results.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _artifact_bytes(out_dirs) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for out_dir in out_dirs
        for dirpath, _, names in os.walk(out_dir)
        for name in names
    )


def _peak_rss_mib() -> float:
    """Peak resident memory of this process.  ``ru_maxrss`` would not do: on
    Linux it keeps the high-water mark of the process that started this one
    across the exec, so it reads at least the benchmark process's peak."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _round(spec_path: str) -> dict:
    with open(spec_path) as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    import socialml.cli
    from socialml.config import load_config

    load_config(spec["config"])
    setup_s = time.perf_counter() - start

    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    codes = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        codes.append(socialml.cli.main(argv))
    run_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mib": _peak_rss_mib(),
        "returncodes": codes,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, run_s)
        layers["experiments.artifact_bytes"] = (_artifact_bytes(spec["out_dirs"]), "B")
        result["layers"] = layers
        tracer.write_spans(spec["trace"])
    return result


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(_round(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
