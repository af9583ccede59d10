"""Environment server of the remote workloads: the program's ``EnvServer``
in a process of its own, driven over stdin by the benchmark.

    python3 perfbench/envserver.py [--spans PATH]

Prints the port it listens on, then answers one line per control line:

    trace on | trace off   wrap (unwrap) the layers of this process
    usage                  {"cpu_s": user+system seconds, "maxrss_kb": peak RSS}

At end of input it stops serving, writes the spans recorded while tracing
was on to PATH (an ``.npz`` file), if given, and exits.
"""

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checkout  # noqa: E402  (puts the program's src/ on sys.path)

from sscirl import envproto, plant  # noqa: E402

from layers import install  # noqa: E402
from tracer import Tracer  # noqa: E402


def _usage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = Tracer()
    server = envproto.EnvServer(plant.PlantScenario(), port=0)
    thread = server.serve_background()
    print(server.address[1], flush=True)
    try:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "trace on":
                install(tracer)
                reply = "ok"
            elif cmd == "trace off":
                tracer.remove()
                reply = "ok"
            elif cmd == "usage":
                reply = json.dumps(_usage())
            else:
                reply = json.dumps({"error": f"unknown command {cmd!r}"})
            print(reply, flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        tracer.remove()
        if args.spans:
            tracer.save(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
