"""The ``serve_mixed`` server process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; runs one
:class:`repro.serve.AlignmentServer` (2 worker threads, SQLite journal) on
an ephemeral port and prints ``{"port": P}``.  It then obeys one command
per stdin line, each answered with one JSON line on stdout:

* ``trace on`` — install the layer wrappers (no request may be in flight);
* ``trace off`` — remove them and answer the per-name span summary plus
  the solver seconds spent under cached submissions;
* ``rss`` — answer the peak RSS since the previous ``rss``;
* ``stop`` (or end of input) — stop the server.
"""

from __future__ import annotations

import json
import sys

from repro.serve import ServeConfig, serve_in_thread

import spans
from workloads import take_peak_rss_mb


def main(store_path: str) -> None:
    config = ServeConfig(port=0, workers=2, store="sqlite",
                         store_path=store_path, wait_timeout_s=120.0)
    recorder = spans.Recorder()
    with serve_in_thread(config) as server:
        print(json.dumps({"port": server.port}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                recorder.spans = []
                spans.install(recorder, serve=True)
                print(json.dumps({"ok": True}), flush=True)
            elif command == "trace off":
                recorder.unpatch()
                print(json.dumps({
                    "summary": spans.summarize(recorder.spans),
                    "cached_solver_s": spans.solver_seconds_under(
                        recorder.spans, "serve.jobs.submit"),
                }), flush=True)
            elif command == "rss":
                print(json.dumps({"peak_rss_mb": take_peak_rss_mb()}),
                      flush=True)
            elif command == "stop":
                break
    print(json.dumps({"stopped": True}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
