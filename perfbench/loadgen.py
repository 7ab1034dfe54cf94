"""HTTP load generator and server control for the ``serve_http`` workload.

Stdlib only.  One thread per keep-alive HTTP/1.1 connection.  Request
bodies are encoded before a phase starts, so the generator's own work per
request is a send and a receive.
"""

import http.client
import itertools
import json
import selectors
import signal
import subprocess
import sys
import threading
import time

REQUEST_TIMEOUT_S = 10.0


class Record:
    """One request: when it was due, taken by a connection, sent and done."""

    __slots__ = ("body", "due", "taken", "sent", "done", "status", "payload")

    def __init__(self, body, due, taken):
        self.body = body
        self.due = due
        self.taken = taken
        self.sent = self.done = None
        self.status = None
        self.payload = None

    @property
    def generator_lateness(self):
        """Send time minus the later of due time and connection free time.

        Waiting for a busy connection is the server's doing; anything
        beyond that is the generator falling behind its schedule.
        """
        return self.sent - max(self.due, self.taken)


class _Connection:
    def __init__(self, host, port):
        self.host, self.port = host, port
        self.conn = None

    def post(self, path, body):
        """Returns ``(status, payload bytes)``; status None on a failure."""
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=REQUEST_TIMEOUT_S)
            self.conn.request("POST", path, body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, None

    def close(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def run_phase(host, port, path, bodies, n_conns, duration, rate=None):
    """Drive ``n_conns`` connections for ``duration`` seconds.

    ``rate`` set: open loop, request ``i`` is due at ``t0 + i / rate`` and
    goes out on the next free connection.  ``rate`` None: closed loop,
    each connection sends its next request when the last one completes.
    """
    lock = threading.Lock()
    counter = itertools.count()
    records = []
    t0 = time.perf_counter() + 0.01
    stop = t0 + duration

    def next_record():
        taken = time.perf_counter()
        with lock:
            i = next(counter)
        due = t0 + i / rate if rate else max(taken, t0)
        if due >= stop:
            return None
        record = Record(i % len(bodies), due, taken)
        with lock:
            records.append(record)
        return record

    def drive():
        conn = _Connection(host, port)
        try:
            while True:
                record = next_record()
                if record is None:
                    return
                wait = record.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                record.sent = time.perf_counter()
                record.status, record.payload = conn.post(
                    path, bodies[record.body])
                record.done = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=drive, daemon=True)
               for _ in range(n_conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(duration + 2 * REQUEST_TIMEOUT_S + 5)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator thread did not finish")
    elapsed = max([stop] + [r.done for r in records]) - t0
    return records, elapsed


def get_json(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


class Server:
    """``python -m repro.cli serve`` as a subprocess on a free port."""

    def __init__(self, root, model_path, log_path, start_timeout=60.0):
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--model", f"bench={model_path}", "--port", "0"],
            cwd=root, stdout=subprocess.PIPE, stderr=self.log,
            text=True)
        try:
            line = self._first_line(start_timeout)
            if "http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}; "
                                   f"see {log_path}")
            address = line.rsplit("http://", 1)[1].strip().rstrip("/")
            host, port = address.rsplit(":", 1)
            self.host, self.port = host, int(port)
            deadline = time.monotonic() + start_timeout
            while True:
                try:
                    status, health = get_json(self.host, self.port,
                                              "/healthz")
                    if status == 200 and health["status"] == "ok":
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError("server never reported healthy")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _first_line(self, timeout):
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError("server printed nothing on start")
        return self.proc.stdout.readline()

    def metrics(self):
        status, snapshot = get_json(self.host, self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return snapshot

    def peak_rss_mb(self):
        """The server process's ``VmHWM``, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        """SIGTERM (graceful drain), then kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()

