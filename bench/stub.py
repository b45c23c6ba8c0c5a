"""Loopback HTTP stub that serves a corpus's recorded replies.

Each role has its own path (``/extract``, ``/detect``, ``/ground``,
``/generate``, ``/select``) and answers after a fixed service time
(``corpus.SERVICE_MS``). Replies are keyed like replay fixtures, except
that the extractor is keyed by the full prompt the HTTP extractor sends.
``GET /stats`` returns the calls served per path.

Nagle's algorithm is off on every connection: with it on, a reply sent
as headers then body waits on the client's delayed ACK, which adds tens
of milliseconds to every call.

    python3 bench/stub.py --table DIR/stub_table.json

prints ``PORT <n>`` once it listens on 127.0.0.1, and serves until it is
terminated or its standard input closes.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from corpus import FIXTURE_ROLE, SERVICE_MS

QUERY_FIELD = {"extract": "prompt", "detect": "query", "ground": "query", "generate": "prompt", "select": "prompt"}


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, table: dict[tuple[str, str, str], bytes]):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.table = table
        self.service_s = {FIXTURE_ROLE[r]: ms / 1000.0 for r, ms in SERVICE_MS.items()}
        self.served = {path: 0 for path in QUERY_FIELD}
        self.lock = threading.Lock()


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: StubServer

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._reply(404, b'{"error": "unknown path"}')
            return
        with self.server.lock:
            body = json.dumps(self.server.served).encode()
        self._reply(200, body)

    def do_POST(self) -> None:
        role = self.path.lstrip("/")
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        field = QUERY_FIELD.get(role)
        key = (role, request.get("image", ""), request.get(field, "")) if field else None
        body = self.server.table.get(key)
        if body is None:
            self._reply(404, json.dumps({"error": f"no recorded reply for {key}"}).encode())
            return
        time.sleep(self.server.service_s[role])
        with self.server.lock:
            self.server.served[role] += 1
        self._reply(200, body)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="loopback HTTP stub for the benchmark")
    parser.add_argument("--table", type=Path, required=True)
    args = parser.parse_args(argv)
    rows = json.loads(args.table.read_text(encoding="utf-8"))
    table = {(role, image, query): payload.encode() for role, image, query, payload in rows}
    server = StubServer(table)

    def stop_when_parent_goes() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_when_parent_goes, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
