"""Run tabmem CLI argvs in this process through ``tabmem.cli.main``.

Usage: python3 traced.py PLAN.json RESULT.json

PLAN.json holds ``{"trace": bool, "argvs": [[...], ...]}``. The argvs run
one after another in a fresh interpreter, so the RSS high-water mark starts
from the interpreter's own. With ``trace`` set, every function in
``spans.TRACED`` is wrapped for the run; RESULT.json then holds the per-span
metrics and the targets that no longer exist, as well as each invocation's
exit code and wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import traceback

import spans


def run(plan: dict) -> dict:
    start = time.perf_counter()
    cli = importlib.import_module("tabmem.cli")
    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    missing = tracer.install() if plan["trace"] else []
    invocations = []
    try:
        for argv in plan["argvs"]:
            error = ""
            index = tracer.open(spans.ROOT)
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors exit 2
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # recorded as a failed invocation; the run goes on
                code, error = 1, traceback.format_exc()
            finally:
                tracer.close(index)
            span = tracer.spans[index]
            invocations.append({"code": code, "wall_s": span.end - span.start, "error": error})
    finally:
        tracer.remove()
    metrics = spans.summarize(tracer.spans) if plan["trace"] else {}
    return {"import_s": import_s, "invocations": invocations, "metrics": metrics,
            "missing_targets": missing}


if __name__ == "__main__":
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path, encoding="utf-8") as fh:
        result = run(json.load(fh))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
