"""Open-loop HTTP load generator, run as its own process.

Usage: ``python3 loadgen.py SCHEDULE.json`` where the schedule holds
``{"port": P, "ops": [{"at": s, "conn": "read"|"write", "method": ...,
"path": ..., "body": ...}, ...]}``.  One thread and one keep-alive
connection per ``conn`` value send their ops at ``t0 + at`` whatever
the server's pace (open loop); a connection busy with an earlier reply
sends late, and each request is timed from when it was due.

Prints one JSON line: ``{"results": [[index, late_s, latency_s, status,
revision, rows], ...], "t0": monotonic_s, "elapsed": seconds}``; op
``i`` was due at ``t0 + ops[i]["at"]`` on ``time.monotonic()``.
``status`` 0 means the connection failed.  It imports nothing from the
program under test.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

#: Lead time between connecting and the first due op, in seconds.
START_LEAD = 0.2


def _drive(port: int, ops: list, t0: float, results: list) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for index, op in ops:
            due = t0 + op["at"]
            pause = due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            sent = time.monotonic()
            status, revision, rows = 0, None, None
            try:
                body = op.get("body")
                headers = {"Content-Type": "application/json"} if body else {}
                conn.request(op["method"], op["path"], body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
                status = response.status
                if status == 200:
                    decoded = json.loads(payload)
                    revision = decoded.get("revision")
                    rows = decoded.get("rows")
            except (OSError, http.client.HTTPException, ValueError):
                conn.close()  # reconnects on the next request
            done = time.monotonic()
            results.append([index, sent - due, done - due, status, revision, rows])
    finally:
        conn.close()


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        schedule = json.load(handle)
    by_conn: dict[str, list] = {}
    for index, op in enumerate(schedule["ops"]):
        by_conn.setdefault(op["conn"], []).append((index, op))
    results: list = []
    t0 = time.monotonic() + START_LEAD
    threads = [
        threading.Thread(target=_drive, args=(schedule["port"], ops, t0, results))
        for ops in by_conn.values()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(json.dumps({"results": sorted(results), "t0": t0,
                      "elapsed": time.monotonic() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
