"""One cold set-up: imports, server start and every first call.

    python3 perfbench/coldstart.py

``run.py`` pays one set-up itself and runs this script for the others,
each in a fresh interpreter, so that every sample of ``setup_s`` is as
cold as the first one a user pays.  Run as a script, it sets up once,
stops the server and prints the seconds as its last stdout line.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def set_up(started: float):
    """Import the package, start a server and make every first call.

    Returns the running server and the seconds since ``started``.
    """
    import numpy as np
    import repro  # noqa: F401
    import repro.cli  # noqa: F401
    from repro import HeteroSVDConfig, TimingSimulator, svd
    from repro.linalg.streaming import StreamingSVD
    from repro.serve import ServeConfig, ServerThread

    from perfbench import dse, serve

    warm = np.random.default_rng(0).standard_normal((16, 16))
    server = ServerThread(ServeConfig()).start()
    serve.wire_op(server.address, "ping")
    serve.drive(server.address, serve.Segment(100.0, [{
        "op": "decompose", "id": "warm", "shape": [16, 16], "seed": 0}]))
    for method in ("block", "hestenes", "dnc", "tsqr"):
        svd(warm, method=method)
    StreamingSVD(rank=4).update(warm)
    TimingSimulator(HeteroSVDConfig(m=64, n=64, p_eng=2)).simulate(1)
    dse.cli(["dse", "--size", "1024", "--top", "1"])
    return server, time.perf_counter() - started


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    running, seconds = set_up(_STARTED)
    running.stop()
    from perfbench.harness import stop_child_processes

    stop_child_processes()
    print(seconds)
