#!/usr/bin/env python3
"""Command-line client for `igen --serve` (newline-delimited JSON over a
Unix-domain socket).

Usage:
  igen_client.py --socket PATH [--wait SECS] COMMAND [ARGS]

Commands:
  compile FILE|-        compile a C source (stdin with "-"); prints the
                        response, including the content-hash handle.
                        Options: --opt-level N --target ss|sv
                        --precision f64|dd --branch exception|join
                        --reductions --batch-loops --module NAME
  eval HANDLE FUNC ARG...
                        evaluate FUNC from a cached program. Each ARG is
                        a number (point interval), "lo,hi" (interval),
                        "int:N" (integer scalar), "point:X" (tolerance
                        input), or "array:a;b;c" (interval array, each
                        element a number or "lo,hi").
                        Options: --fenv-policy repair|poison
                        --step-limit N (the branch policy and
                        reductions are compile options)
  stats                 fetch the daemon's counters/histograms report.
  health                fetch serving/draining state and in-flight ages.
  evict [HANDLE|--all]  drop one cached program, or all of them.
  shutdown              ask the daemon to exit cleanly.

Reliability knobs:
  --deadline-ms N       attach a wall-clock budget to the request; the
                        daemon answers a typed "deadline-exceeded"
                        error instead of running past it.
  --retries N           re-attempt (default 3) on connect failure and on
                        the retryable typed errors "queue-full" and
                        "shutting-down", with capped exponential backoff
                        plus jitter (base --retry-base-ms, cap 2s).
                        Re-sent frames carry "retry":attempt so the
                        daemon can count second-hand traffic.

Every command prints the daemon's one-line JSON response (pretty-printed
unless --raw) and exits 0 iff ok:true. Stdlib only.
"""

import argparse
import json
import random
import socket
import sys
import time

RETRYABLE_CODES = {"queue-full", "shutting-down"}
BACKOFF_CAP_S = 2.0


def connect(path, wait):
    deadline = time.monotonic() + wait
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError as err:
            sock.close()
            if time.monotonic() >= deadline:
                raise OSError(f"cannot connect to {path}: {err}")
            time.sleep(0.05)


def rpc(sock, request):
    frame = json.dumps(request, separators=(",", ":")) + "\n"
    sock.sendall(frame.encode("utf-8"))
    buf = b""
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise OSError("connection closed before response")
        buf += chunk
    line = buf.split(b"\n", 1)[0]
    try:
        return json.loads(line)
    except ValueError as err:
        raise SystemExit(f"igen_client: bad response frame: {err}: {line!r}")


def backoff_sleep(attempt, base_ms):
    """Capped exponential backoff with full jitter: sleep a uniform
    amount of [0, min(cap, base * 2^attempt)]. Full jitter keeps a
    thundering herd of retrying clients from re-synchronizing."""
    span = min(BACKOFF_CAP_S, (base_ms / 1000.0) * (2 ** attempt))
    time.sleep(random.uniform(0.0, span))


def rpc_with_retry(path, wait, req, retries, retry_base_ms):
    """One request, retried on connect failure and on retryable typed
    errors. Re-sent frames are tagged with "retry":attempt (attempt >=
    1), which the daemon surfaces in stats.resilience.retried."""
    last_err = None
    for attempt in range(retries + 1):
        if attempt > 0:
            req = dict(req)
            req["retry"] = attempt
            backoff_sleep(attempt - 1, retry_base_ms)
        try:
            sock = connect(path, wait)
        except OSError as err:
            last_err = str(err)
            continue
        try:
            resp = rpc(sock, req)
        except OSError as err:
            last_err = str(err)
            continue
        finally:
            sock.close()
        code = (resp.get("error") or {}).get("code")
        if resp.get("ok") is False and code in RETRYABLE_CODES:
            last_err = f"daemon answered {code}"
            continue
        return resp
    raise SystemExit(f"igen_client: giving up after {retries + 1} attempts: "
                     f"{last_err}")


def parse_eval_arg(text):
    if text.startswith("int:"):
        return {"int": int(text[4:])}
    if text.startswith("point:"):
        return {"point": float(text[6:])}
    if text.startswith("array:"):
        return {"array": [parse_eval_arg(e) for e in text[6:].split(";") if e]}
    if "," in text:
        lo, hi = text.split(",", 1)
        return {"lo": float(lo), "hi": float(hi)}
    return float(text)


def main(argv):
    ap = argparse.ArgumentParser(
        prog="igen_client.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--socket", required=True, help="daemon socket path")
    ap.add_argument("--wait", type=float, default=0.0,
                    help="seconds to keep retrying the connect")
    ap.add_argument("--raw", action="store_true",
                    help="print the response as one line, not pretty")
    ap.add_argument("--id", default=None, help="request id to echo")
    ap.add_argument("--deadline-ms", type=int, default=None,
                    help="wall-clock budget for the request (daemon-side)")
    ap.add_argument("--retries", type=int, default=3,
                    help="retry attempts on connect failure / queue-full / "
                         "shutting-down (0 disables)")
    ap.add_argument("--retry-base-ms", type=float, default=50.0,
                    help="backoff base; attempt k waits up to "
                         "base * 2^k ms (capped at 2s, with jitter)")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile")
    c.add_argument("file")
    c.add_argument("--opt-level", type=int, choices=(0, 1), default=None)
    c.add_argument("--target", choices=("ss", "sv"), default=None)
    c.add_argument("--precision", choices=("f64", "dd"), default=None)
    c.add_argument("--branch", choices=("exception", "join"), default=None)
    c.add_argument("--reductions", action="store_true")
    c.add_argument("--batch-loops", action="store_true")
    c.add_argument("--module", default=None)

    e = sub.add_parser("eval")
    e.add_argument("handle")
    e.add_argument("function")
    e.add_argument("args", nargs="*")
    e.add_argument("--fenv-policy", choices=("repair", "poison"), default=None)
    e.add_argument("--step-limit", type=int, default=None)

    sub.add_parser("stats")

    sub.add_parser("health")

    v = sub.add_parser("evict")
    v.add_argument("handle", nargs="?")
    v.add_argument("--all", action="store_true")

    sub.add_parser("shutdown")

    ns = ap.parse_args(argv[1:])

    req = {"op": ns.command}
    if ns.id is not None:
        req["id"] = ns.id
    if ns.deadline_ms is not None:
        req["deadline_ms"] = ns.deadline_ms
    if ns.command == "compile":
        if ns.file == "-":
            req["source"] = sys.stdin.read()
        else:
            with open(ns.file, "r", encoding="utf-8") as f:
                req["source"] = f.read()
        opts = {}
        if ns.opt_level is not None:
            opts["opt_level"] = ns.opt_level
        if ns.target:
            opts["target"] = ns.target
        if ns.precision:
            opts["precision"] = ns.precision
        if ns.branch:
            opts["branch"] = ns.branch
        if ns.reductions:
            opts["reductions"] = True
        if ns.batch_loops:
            opts["batch_loops"] = True
        if ns.module:
            opts["module"] = ns.module
        if opts:
            req["options"] = opts
    elif ns.command == "eval":
        req["handle"] = ns.handle
        req["function"] = ns.function
        req["args"] = [parse_eval_arg(a) for a in ns.args]
        opts = {}
        if ns.fenv_policy:
            opts["fenv_policy"] = ns.fenv_policy
        if ns.step_limit is not None:
            opts["step_limit"] = ns.step_limit
        if opts:
            req["options"] = opts
    elif ns.command == "evict":
        if ns.all:
            req["all"] = True
        elif ns.handle:
            req["handle"] = ns.handle
        else:
            ap.error("evict needs a HANDLE or --all")

    retries = max(0, ns.retries)
    # shutdown is not idempotent from the operator's point of view
    # (retrying one against a fresh instance would kill it too), so it
    # never retries on typed errors; connect retries are still fine.
    if ns.command == "shutdown":
        resp = None
        try:
            sock = connect(ns.socket, ns.wait)
        except OSError as err:
            raise SystemExit(f"igen_client: {err}")
        try:
            resp = rpc(sock, req)
        except OSError as err:
            raise SystemExit(f"igen_client: {err}")
        finally:
            sock.close()
    else:
        resp = rpc_with_retry(ns.socket, ns.wait, req, retries,
                              ns.retry_base_ms)

    if ns.raw:
        print(json.dumps(resp, separators=(",", ":")))
    else:
        print(json.dumps(resp, indent=2))
    return 0 if resp.get("ok") is True else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
