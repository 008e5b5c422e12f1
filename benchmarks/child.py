"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

    python3 child.py SPEC_JSON SPAWN_CLOCK

``SPAWN_CLOCK`` is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so ``setup_s`` covers interpreter start-up plus
``import sockdetect.cli``, what a user pays on every CLI run.  The spec names
the CLI commands to run in order and whether to trace them.  Before each
command and after the last, the child times the reference kernel of
``calibrate.py``.  The result is written as JSON to the path the spec gives; the CLI's own stdout is
discarded.
"""

import json
import os
import sys
import time
from contextlib import redirect_stdout


def main() -> int:
    spec = json.loads(open(sys.argv[1], encoding="utf-8").read())
    spawned = float(sys.argv[2])
    import sockdetect.cli as cli

    result: dict = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned}
    from calibrate import kernel

    tracer = None
    if spec["trace"]:
        import sockdetect.evaluate as evaluate
        import sockdetect.pipeline as pipeline
        from tracing import Tracer

        tracer = Tracer()
        tracer.install({"cli": cli, "pipeline": pipeline, "evaluate": evaluate})

    commands = {}
    calibration = []
    with open(os.devnull, "w", encoding="utf-8") as devnull, redirect_stdout(devnull):
        for argv in spec["commands"]:
            calibration.append(kernel())
            started = time.perf_counter()
            code = cli.main(argv)
            commands[argv[0]] = {
                "seconds": time.perf_counter() - started,
                "exit": code,
            }
            if code != 0:
                break
        calibration.append(kernel())
    result["commands"] = commands
    result["calibration_s"] = calibration
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counts"] = tracer.counts()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
