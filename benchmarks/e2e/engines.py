"""Engine processes and the load generated against them.

One class per way a user reaches the engine: as a library inside a
fresh interpreter (:class:`LibEngine`), as a cold ``python -m repro
query`` process per operation (:class:`CliEngine`), and as a ``python
-m repro serve`` daemon behind two closed-loop client connections
(:class:`ServeEngine`).  Each starts the engine exactly as shipped —
no flag or environment knob set — times fixed blocks of operations,
checks every answer against :mod:`expected`, and tears its processes
and files down on every exit path.

``start()`` covers everything up to the first timed block (inputs on
disk, process up, graph loaded, one warm-up block); ``blocks()``
yields one record per block::

    {"wall": s, "cpu": s, "ops": n, "tail": s, "failures": [reason],
     "kinds": {kind: [latency s]}, "lane_ops": n or None, ...}
"""

import json
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
import time

from . import expected, inputs, tracing, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: No child outlives this many seconds: a hung engine fails the run
#: well inside the driver's 180 s limit instead of hanging it.
CHILD_DEADLINE = 150.0

#: Environment switches that change the engine's defaults; the engine
#: runs as shipped, so none of them reaches a child.
_ENGINE_SWITCHES = ("REPRO_TRACE", "REPRO_TELEMETRY", "REPRO_TUNING_PROFILE",
                    "REPRO_EXECUTION_MODE", "PYTHONDONTWRITEBYTECODE",
                    "PYTHONOPTIMIZE")


def child_env(harness=False):
    """Environment of every child: single-threaded BLAS, fixed hash
    seed, ``src`` importable (plus the harness for its own children)."""
    env = {key: value for key, value in os.environ.items()
           if key not in _ENGINE_SWITCHES}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([ROOT, SRC] if harness else [SRC])
    return env


def _stop(process):
    """Terminate, then kill, then reap: no child survives its engine."""
    if process is None:
        return
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


class _Watchdog:
    """Kills a child that outlives :data:`CHILD_DEADLINE`, which turns
    a blocked pipe read into an EOF and so into an error."""

    def __init__(self, process):
        self._timer = threading.Timer(CHILD_DEADLINE, process.kill)
        self._timer.daemon = True
        self._timer.start()

    def cancel(self):
        self._timer.cancel()


class EngineError(RuntimeError):
    """The engine process died, hung or spoke out of turn."""


class Engine:
    """Shared bookkeeping: the plan, its answers, a scratch directory."""

    def __init__(self, plan, answers, seed, smoke=False):
        self.plan = plan
        self.answers = answers
        self.seed = seed
        self.smoke = smoke
        self.peak_rss_mb = None
        self.process = None  # the long-lived engine child, if any
        self.scratch = os.path.join(OUT, "run-%d-%d" % (os.getpid(), id(self)))
        self.spans_path = os.path.join(self.scratch, "spans.json")
        self.config_signature = None
        #: spans of the traced blocks and of set-up, after a traced run
        self.spans = []
        self.setup_spans = []

    def _scratch_dir(self):
        os.makedirs(self.scratch, exist_ok=True)
        return self.scratch

    def _repro(self, traced):
        """``python -m repro``, or its traced stand-in."""
        module = ["benchmarks.e2e.traced_entry", self.spans_path] \
            if traced else ["repro"]
        return [sys.executable, "-m"] + module

    @staticmethod
    def _warmed(block):
        if block["failures"]:
            raise EngineError("warm-up failed: %s" % block["failures"][0])

    def close(self):
        _stop(self.process)
        shutil.rmtree(self.scratch, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


# -- library ------------------------------------------------------------------


class LibEngine(Engine):
    """``Database()`` inside a fresh harness child interpreter."""

    def __init__(self, plan, answers, seed, smoke=False):
        super().__init__(plan, answers, seed, smoke)
        self.watchdog = None
        self.reference_failures = None

    def start(self, blocks=0, traced_blocks=0):
        config = {"workload": self.plan["workload"], "seed": self.seed,
                  "smoke": self.smoke, "blocks": blocks,
                  "traced_blocks": traced_blocks,
                  "setup_only": blocks == 0 and traced_blocks == 0,
                  "spans_out": self.spans_path}
        if traced_blocks:
            self._scratch_dir()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.lib_child",
             json.dumps(config)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=child_env(harness=True))
        self.watchdog = _Watchdog(self.process)
        ready = self._event("ready")
        self.config_signature = ready["config_signature"]
        # the warm-up block's answers are the child's reference for
        # "same": check them once, every later block inherits the verdict
        self.reference_failures = [
            self._verdict(index, record, None)
            for index, record in enumerate(ready["ops"])]
        return self

    def _event(self, kind):
        line = self.process.stdout.readline()
        if not line:
            raise EngineError("library child ended before %r (exit %r)"
                              % (kind, self.process.wait()))
        event = json.loads(line)
        if event["event"] != kind:
            raise EngineError("expected %r from the library child, got %r"
                              % (kind, event["event"]))
        return event

    def _verdict(self, index, record, inherited):
        if record.get("same"):
            return inherited[index]
        answer = record["answer"]
        if isinstance(answer, list):
            answer = {key: value for key, value in answer}
        return expected.mismatch(self.answers[index], answer)

    def blocks(self, count, traced=False):
        ops = self.plan["ops"]
        for _ in range(count):
            event = self._event("block")
            if event["traced"] != traced:
                raise EngineError("library child ran blocks out of order")
            records = event["ops"]
            kinds = {}
            failures = []
            for index, (op, record) in enumerate(zip(ops, records)):
                reason = self._verdict(index, record,
                                       self.reference_failures)
                if reason is not None:
                    failures.append("%s: %s" % (op["kind"], reason))
                else:
                    kinds.setdefault(op["kind"], []).append(record["wall"])
            yield {"wall": sum(r["wall"] for r in records),
                   "cpu": sum(r["cpu"] for r in records),
                   "ops": len(records),
                   "tail": max(r["wall"] for r in records),
                   "failures": failures, "kinds": kinds,
                   "lane_ops": sum(r["lane_ops"] for r in records)}

    def finish(self):
        """After the last block: peak RSS, and the spans if traced."""
        self.peak_rss_mb = self._event("done")["peak_rss_mb"]
        if self.process.wait(timeout=30) != 0:
            raise EngineError("library child exited with %d"
                              % self.process.returncode)
        if os.path.exists(self.spans_path):
            spans = tracing.load_spans(self.spans_path)
            self.spans = [s for s in spans
                          if s[tracing.OP] != tracing.SETUP_OP]
            self.setup_spans = [s for s in spans
                                if s[tracing.OP] == tracing.SETUP_OP]

    def close(self):
        if self.watchdog is not None:
            self.watchdog.cancel()
        super().close()


# -- cold CLI -----------------------------------------------------------------

_OPS_LINE = re.compile(r"(\d+) simulated ops")


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class CliEngine(Engine):
    """One ``python -m repro query --edges FILE PROGRAM`` per operation."""

    def start(self, blocks=0, traced_blocks=0):
        del blocks, traced_blocks
        self.traced_ops = 0
        self.edge_file = os.path.join(self._scratch_dir(), "edges.txt")
        inputs.write_edgelist(self.edge_file, self.plan["edges"])
        self._warmed(self._operation(traced=False))
        return self

    def _operation(self, traced):
        command = self._repro(traced) + [
            "query", "--edges", self.edge_file, self.plan["ops"][0]["text"]]
        cpu = _children_cpu()
        start = time.perf_counter()
        done = subprocess.run(
            command, capture_output=True, text=True,
            cwd=ROOT, env=child_env(harness=traced), timeout=CHILD_DEADLINE)
        wall = time.perf_counter() - start
        cpu = _children_cpu() - cpu
        failures = []
        lane_ops = None
        if done.returncode != 0:
            failures.append("exit %d: %s" % (done.returncode,
                                             done.stderr.strip()[-200:]))
        else:
            try:
                answer = float(done.stdout.strip())
            except ValueError:
                answer = done.stdout.strip()[:80]
            reason = expected.mismatch(self.answers[0], answer)
            if reason is not None:
                failures.append("selection: %s" % reason)
            counted = _OPS_LINE.search(done.stderr)
            lane_ops = int(counted.group(1)) if counted else None
        if traced and not failures:
            # span ids are per process: shift each child's into a
            # range of its own and give its spans the operation's id
            shift = self.traced_ops * 1000000
            for span in tracing.load_spans(self.spans_path):
                span[tracing.ID] += shift
                if span[tracing.PARENT] is not None:
                    span[tracing.PARENT] += shift
                span[tracing.OP] = self.traced_ops
                self.spans.append(span)
            self.traced_ops += 1
        return {"wall": wall, "cpu": cpu, "ops": 1, "tail": wall,
                "failures": failures, "lane_ops": lane_ops,
                "kinds": {} if failures else {"selection": [wall]}}

    def blocks(self, count, traced=False):
        for _ in range(count):
            yield self._operation(traced)

    def finish(self):
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def startup_seconds(self, repeats):
        """Best-of wall time of a bare interpreter and of one that
        imports the CLI: what a cold process pays before any work."""
        def best(code):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], check=True,
                               cwd=ROOT, env=child_env(),
                               timeout=CHILD_DEADLINE)
                times.append(time.perf_counter() - start)
            return min(times)
        return best("pass"), best("import repro.cli")


# -- daemon -------------------------------------------------------------------

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


def _process_cpu(pid):
    """user + system seconds of a live process, from ``/proc/PID/stat``."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _process_peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise EngineError("no VmHWM for pid %d" % pid)


class ServeEngine(Engine):
    """``python -m repro serve --edges FILE --port 0`` and two
    closed-loop clients, one thread and one connection each."""

    def __init__(self, plan, answers, seed, smoke=False):
        super().__init__(plan, answers, seed, smoke)
        self.clients = []
        self.traced = False

    def start(self, blocks=0, traced_blocks=0):
        del blocks
        from repro.serve.client import ServeClient
        self.traced = bool(traced_blocks)
        edge_file = os.path.join(self._scratch_dir(), "edges.txt")
        inputs.write_edgelist(edge_file, self.plan["edges"])
        self.process = subprocess.Popen(
            self._repro(self.traced)
            + ["serve", "--edges", edge_file, "--port", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=child_env(harness=self.traced))
        watchdog = _Watchdog(self.process)
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        announced = _LISTENING.search(line)
        if announced is None:
            raise EngineError("daemon did not announce a port: %r" % line)
        host, port = announced.group(1), int(announced.group(2))
        self.clients = [ServeClient(host=host, port=port,
                                    timeout=CHILD_DEADLINE)
                        for _ in range(workloads.SERVE_CONNECTIONS)]
        reply = self.clients[0].materialize(workloads.VIEW_NAME,
                                            workloads.VIEW)
        if reply.get("status") != "ok":
            raise EngineError("materialize failed: %r" % reply)
        self._warmed(self._block())
        return self

    def _connection(self, client, ops, barrier, log):
        barrier.wait(timeout=CHILD_DEADLINE)
        for op in ops:
            start = time.perf_counter()
            try:
                if "text" in op:
                    reply = client.call("query", text=op["text"])
                else:
                    reply = client.call(op["kind"], name="Edge",
                                        tuples=op["rows"])
            except (OSError, ValueError) as error:
                log.append((op, start, time.perf_counter(),
                            {"status": "lost", "error": repr(error)}))
                return
            log.append((op, start, time.perf_counter(), reply))

    def _block(self):
        cpu = _process_cpu(self.process.pid)
        cache = self.clients[0].status()["result_cache"]
        barrier = threading.Barrier(len(self.clients))
        logs = [[] for _ in self.clients]
        threads = [threading.Thread(target=self._connection,
                                    args=(client, ops, barrier, log))
                   for client, ops, log in zip(
                       self.clients, self.plan["connections"], logs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=CHILD_DEADLINE)
            if thread.is_alive():
                raise EngineError("client connection did not finish")
        cpu = _process_cpu(self.process.pid) - cpu
        after = self.clients[0].status()["result_cache"]
        record = self._judge(logs)
        record["cpu"] = cpu
        lookups = (after["hits"] - cache["hits"]
                   + after["misses"] - cache["misses"])
        record["cache_hit_ratio"] = \
            (after["hits"] - cache["hits"]) / lookups if lookups else 0.0
        return record

    def _judge(self, logs):
        """Check every reply and sort latencies by what the request
        turned out to be: ``hit`` (served from the result cache),
        ``refill`` (a hot program executed after a write evicted it),
        ``miss`` (a one-off program executed) or ``write``.

        Reads race the other connection's writes, so a read may see
        the catalog with or without the batch: any state that held at
        some instant between its send and its reply is accepted.
        """
        writes = sorted((start, end, op["kind"] == "append")
                        for op, start, end, _ in logs[0] if "rows" in op)
        kinds = {"hit": [], "refill": [], "miss": [], "write": []}
        failures = []
        reads = []
        queue_wait = []
        rejected = 0
        entries = [entry for log in logs for entry in log]
        for op, start, end, reply in entries:
            status = reply.get("status")
            if status != "ok":
                rejected += status == "rejected"
                failures.append("%s: %s %s" % (op["kind"], status,
                                               reply.get("error", "")))
                continue
            latency = end - start
            if "rows" in op:
                if reply.get("changed") != len(op["rows"]):
                    failures.append("%s changed %r rows, not %d" % (
                        op["kind"], reply.get("changed"), len(op["rows"])))
                    continue
                kinds["write"].append(latency)
                continue
            possible = {False}
            for w_start, w_end, appended in writes:
                if w_end < start:
                    possible = {appended}
                elif w_start <= end:
                    possible.add(appended)
            got = _payload_value(reply["result"])
            reasons = [expected.mismatch(self.answers[op["text"]][state],
                                         got) for state in possible]
            if all(reason is not None for reason in reasons):
                failures.append("%s: %s" % (op["kind"], reasons[0]))
                continue
            reads.append(latency)
            queue_wait.append(max(0.0, latency - reply["elapsed_seconds"]))
            if reply["cached"]:
                kinds["hit"].append(latency)
            else:
                kinds["refill" if op["kind"] == "hot" else "miss"].append(
                    latency)
        begun = min(entry[1] for entry in entries)
        ended = max(entry[2] for entry in entries)
        return {"wall": ended - begun, "ops": len(entries),
                "tail": _slowest_tenth(reads),
                "failures": failures, "kinds": kinds, "lane_ops": None,
                "queue_wait": sum(queue_wait) / max(1, len(queue_wait)),
                "rejected": rejected, "begun": begun, "ended": ended,
                "latency_sum": sum(e[2] - e[1] for e in entries)}

    def blocks(self, count, traced=False):
        del traced
        for _ in range(count):
            yield self._block()

    def finish(self):
        """Drain the daemon; a traced one writes its spans on the way."""
        self.peak_rss_mb = _process_peak_rss_mb(self.process.pid)
        self.clients[0].shutdown()
        for client in self.clients:
            client.close()
        self.clients = []
        if self.process.wait(timeout=30) != 0:
            raise EngineError("daemon exited with %d"
                              % self.process.returncode)
        if self.traced:
            self.spans = tracing.load_spans(self.spans_path)

    def close(self):
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        super().close()


def _slowest_tenth(latencies):
    """Mean of the slowest tenth of a block's read latencies.

    Not the p90: nine reads in ten answer within a few ms and the rest
    queue behind a view refresh for 20 to 70 ms, so the p90 sits on
    the cliff between the two and flips from block to block, while
    the mean beyond it (the same 20-odd samples) moves smoothly.
    """
    if not latencies:
        return 0.0
    worst = sorted(latencies)[-max(1, len(latencies) // 10):]
    return sum(worst) / len(worst)


def _payload_value(payload):
    """A wire payload as :func:`expected.mismatch` compares it."""
    if payload["kind"] == "map":
        return {tuple(row): value for row, value in payload["items"]}
    return payload.get("value")


ENGINES = {"lib": LibEngine, "cli": CliEngine, "serve": ServeEngine}
