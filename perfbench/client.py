"""The benchmark's client: run a sequence of subadapt CLI stages in this fresh process.

    python3 perfbench/client.py RESULT.json TRACE RUN_ID STAGES.json

STAGES.json is a list of [name, cli_arguments]; each runs through
`subadapt.cli.main`, in order, stopping at the first that fails. The parent
sets PYTHONPATH to the checkout's `src` and pins the BLAS thread count before
this process starts. With TRACE=1 the tracer wraps the package first and the
spans, all sharing RUN_ID, go into RESULT.json.
"""
import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv) -> int:
    result_path, trace, run_id, stages_path = argv
    with open(stages_path) as fh:
        stages = json.load(fh)
    import subadapt
    from subadapt import cli

    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    done = {}
    for name, cli_args in stages:
        out = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(cli_args)
            error = None
        except Exception:   # a traceback is a failed stage, reported to the parent
            code, error = 1, traceback.format_exc()
        done[name] = {"code": code, "seconds": time.perf_counter() - started,
                      "error": error, "stdout": out.getvalue()[-2000:]}
        if code != 0:
            break
    result = {"run": run_id, "stages": done, "package": subadapt.__file__,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "env": _environment(),
              "spans": tracer.spans if tracer is not None else None}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
