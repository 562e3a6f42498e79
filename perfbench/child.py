"""One measured verification, run in a fresh process by ``run.py``.

Usage: ``python child.py '<workload json>' <seed> <plain|traced|setup>``

Measures the CPU time from process start through the ``repro`` import,
the spec factory and the formula parse (``setup_s``), then one
``repro.pipeline.verify`` call (``verdict_s``, ``verdict_cpu_s``), reads
``ru_maxrss`` right after the verdict, and checks the answer against the
workload's expected values. ``traced``
also records spans around each layer's public entry point; ``setup``
stops after the set-up. The result is one JSON object on the last line
of standard output.
"""

import importlib
import json
import random
import resource
import sys
import time
import traceback

from tracing import Tracer, layer_counters


def _resolve(path):
    module, _, attribute = path.partition(":")
    return getattr(importlib.import_module(module), attribute)


def _shuffle_initial_facts(builder_class, parse_facts, rng):
    """Make ``DCDSBuilder.initial`` add its facts in a seeded order.

    The order is an input property only: instances are sets, so a correct
    verifier returns the same verdict, states and edges for every seed."""
    original = builder_class.initial

    def initial(self, facts):
        facts = parse_facts(facts) if isinstance(facts, str) else list(facts)
        rng.shuffle(facts)
        return original(self, facts)

    builder_class.initial = initial


def _check(report, expect, replay, tracer):
    """The verdict's outcome, and the ways it differs from the expected."""
    problems = []
    stats = report.abstraction_stats
    outcome = {"holds": report.holds, "route": report.route,
               "states": stats.get("states"), "edges": stats.get("edges")}
    for key, value in outcome.items():
        if value != expect[key]:
            problems.append(f"{key}: got {value!r}, expected {expect[key]!r}")
    certificate = report.witness or report.violation
    kind = certificate.kind if certificate is not None else None
    if kind != expect["certificate"]:
        problems.append(f"certificate: got {kind!r}, "
                        f"expected {expect['certificate']!r}")
    if certificate is not None:
        with tracer.span("mucalc.certify.replay"):
            verdict = replay(report.transition_system, certificate)
        if not verdict.ok:
            problems.append(f"certificate rejected: {verdict.failures[:3]}")
    return outcome, problems


def main(argv):
    workload = json.loads(argv[1])
    seed = int(argv[2])
    mode = argv[3]
    tracer = Tracer(enabled=mode == "traced",
                    run_id=f"{workload['name']}/{seed}")
    with tracer.span("import"):
        import repro.pipeline
        from repro.core.builder import DCDSBuilder, parse_facts
        from repro.mucalc import parse_mu
        from repro.mucalc.certify import replay
    tracer.instrument()

    _shuffle_initial_facts(DCDSBuilder, parse_facts, random.Random(seed))
    with tracer.span("core.spec"):
        dcds = _resolve(workload["factory"])(*workload["args"],
                                             **workload["kwargs"])
    text = workload["formula"]
    with tracer.span("mucalc.parse"):
        formula = _resolve(text[1:])() if text.startswith("@") \
            else parse_mu(text)
    # CPU time since the process started: unlike wall time it excludes
    # the host's steal, which swung set-up times by a quarter.
    setup_s = time.process_time()
    if mode == "setup":
        return {"ok": True, "problems": [], "setup_s": setup_s}

    cpu_started = time.process_time()
    started = time.perf_counter()
    report = repro.pipeline.verify(dcds, formula, **workload["verify_kwargs"])
    verdict_s = time.perf_counter() - started
    verdict_cpu_s = time.process_time() - cpu_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome, problems = _check(report, workload["expect"], replay, tracer)
    result = {
        "ok": not problems, "problems": problems, "outcome": outcome,
        "verdict_s": verdict_s, "verdict_cpu_s": verdict_cpu_s,
        "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "counters": layer_counters(report),
    }
    if tracer.enabled:
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    try:
        result = main(sys.argv)
    except Exception:  # the parent counts the run as failed
        result = {"ok": False, "problems": [traceback.format_exc(limit=8)]}
    print(json.dumps(result))
