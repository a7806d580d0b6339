"""One finsec invocation in a fresh process, started by ``run.py``.

Usage: ``python3 child.py SPEC_JSON`` with SPEC ``{"src", "argv", "trace"}``.
Imports ``finsec.cli``, notes the CLOCK_MONOTONIC time the import finished
(the parent subtracts its spawn time to get set-up time), then calls
``finsec.cli.main(argv)`` with stdout captured.  Prints one JSON object:
exit code, import time, wall seconds of ``main``, peak RSS, the captured
output and, when traced, the spans.  With ``argv`` null it only imports.
BLAS threads are pinned by the parent through the environment.
"""

import sys
import time


def main() -> None:
    import json

    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import finsec.cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    if spec["argv"] is None:
        print(json.dumps({"imported": imported}))
        return

    import contextlib
    import io
    import resource

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        if tracer is None:
            rc = finsec.cli.main(spec["argv"])
        else:
            with tracer.root():
                rc = finsec.cli.main(spec["argv"])
        wall = time.perf_counter() - start
    result = {
        "rc": rc,
        "imported": imported,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output": buf.getvalue(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
