"""Thin client for the experiment server (stdlib ``urllib`` only).

Three parts:

* :class:`ServiceClient` — one method per endpoint, JSON in/out, plus
  an NDJSON event iterator for ``/v1/events``;
* :func:`await_points` — the one poll loop every ``--server`` grid
  shares: given each point's first answer from the server, long-poll
  the unfinished ones, fetch the results and re-emit typed
  :class:`~repro.observatory.progress.ProgressEvent`\\ s so the local
  renderers (live status line, ``--progress-jsonl``) work identically
  in ``--server`` mode;
* :func:`run_specs` — the grid thin-client: submit every spec without
  waiting (the server dedupes and fans out) and collect them through
  :func:`await_points`.

Observatory commands stay thin too: ``repro diff --server`` and
``repro regress --server`` print what ``/v1/diff`` and ``/v1/regress``
compute on the server, so references resolve against the server's own
ledger and cache.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.service.spec import ExperimentSpec


class ServiceError(ValueError):
    """An error answer (or no answer) from the experiment server.

    A ``ValueError`` so the CLI's top-level handler renders it as a
    one-line ``error: …`` (exit 2) instead of a traceback.
    """

    def __init__(self, message: str, status: int = 0):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """One experiment server, addressed by base URL."""

    def __init__(self, base_url: str, timeout: float = 600.0):
        self.base_url = base_url.rstrip("/")
        if "://" not in self.base_url:
            self.base_url = "http://" + self.base_url
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _open(self, method: str, path: str,
              query: Optional[Dict[str, Any]] = None,
              body: Optional[Dict[str, Any]] = None):
        url = self.base_url + path
        if query:
            url += "?" + urllib.parse.urlencode(
                {k: v for k, v in query.items() if v is not None})
        data = json.dumps(body).encode("utf-8") if body is not None \
            else (b"" if method == "POST" else None)
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8"))\
                    .get("error", "")
            except (ValueError, OSError):
                pass
            raise ServiceError(
                f"{method} {path}: HTTP {exc.code}"
                + (f" — {detail}" if detail else ""),
                status=exc.code) from None
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceError(
                f"cannot reach experiment server at {self.base_url}: "
                f"{getattr(exc, 'reason', exc)}") from None

    def _json(self, method: str, path: str,
              query: Optional[Dict[str, Any]] = None,
              body: Optional[Dict[str, Any]] = None) -> Any:
        with self._open(method, path, query=query, body=body) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def _bytes(self, path: str,
               query: Optional[Dict[str, Any]] = None) -> bytes:
        with self._open("GET", path, query=query) as resp:
            return resp.read()

    # ------------------------------------------------------------------
    # endpoint methods
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/health")

    def stats(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/stats")

    def metrics(self) -> Tuple[str, str]:
        """Scrape ``/v1/metrics``: ``(content_type, exposition_text)``."""
        with self._open("GET", "/v1/metrics") as resp:
            content_type = resp.headers.get("Content-Type", "")
            return content_type, resp.read().decode("utf-8")

    def submit(self, spec: Any, wait: bool = True) -> Dict[str, Any]:
        """Submit one spec (an :class:`ExperimentSpec` or plain dict).

        ``wait=True`` long-polls until the point is terminal; the
        answer carries ``key`` and ``status`` (``cached`` / ``done`` /
        ``failed`` / ``submitted`` / ``attached``).
        """
        body = spec.to_dict() if isinstance(spec, ExperimentSpec) \
            else dict(spec)
        return self._json("POST", "/v1/submit",
                          query={"wait": 1 if wait else None}, body=body)

    def campaign(self, doc: Dict[str, Any],
                 sets: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Expand and intake a whole campaign document server-side.

        Answers ``{name, fingerprint, total, pool, points: [...]}``
        with one ``{label, key, status, attached, spec}`` row per
        deduped point (``status`` as in :meth:`submit`).
        """
        body: Dict[str, Any] = {"campaign": dict(doc)}
        if sets:
            body["set"] = dict(sets)
        return self._json("POST", "/v1/campaign", body=body)

    def result_bytes(self, key: str, telemetry: bool = False) -> bytes:
        """The stored entry for ``key``, exactly as the server holds it."""
        return self._bytes(f"/v1/result/{key}",
                           query={"telemetry": 1 if telemetry else None})

    def result(self, key: str):
        """The cached :class:`~repro.analysis.metrics.RunResult`."""
        from repro.sweep.serialize import result_from_dict

        payload = json.loads(self.result_bytes(key).decode("utf-8"))
        return result_from_dict(payload["result"])

    def events(self, key: str) -> Iterator[Dict[str, Any]]:
        """Iterate the NDJSON progress stream for one run key."""
        with self._open("GET", f"/v1/events/{key}") as resp:
            for line in resp:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def history(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        return self._json("GET", "/v1/history",
                          query={"limit": limit})["records"]

    def diff(self, ref_a: str, ref_b: str,
             threshold: Optional[float] = None) -> Dict[str, Any]:
        return self._json("GET", "/v1/diff", query={
            "a": ref_a, "b": ref_b, "threshold": threshold})

    def regress(self, tolerance: Optional[float] = None) -> Dict[str, Any]:
        return self._json("GET", "/v1/regress",
                          query={"tolerance": tolerance})

    def shutdown(self) -> Dict[str, Any]:
        return self._json("POST", "/v1/shutdown")


# ----------------------------------------------------------------------
# grid thin-client
# ----------------------------------------------------------------------
_TERMINAL = ("cached", "done", "failed")


def await_points(
    client: ServiceClient,
    points: Sequence[Tuple[str, Any, Dict[str, Any]]],
    jobs: int = 1,
    events=None,
    trace_id: str = "",
) -> List[Dict[str, Any]]:
    """Collect a grid the server has already accepted.

    ``points`` holds one ``(label, spec, first_answer)`` per point:
    ``spec`` is what ``/v1/submit`` takes, ``first_answer`` the
    server's first word on it (a ``submit(wait=False)`` answer or a
    ``/v1/campaign`` row).  Emits ``begin``, then ``started`` for every
    point not yet terminal, then long-polls those point by point,
    fetches every result and emits ``cached`` / ``done`` / ``failed``
    and ``end`` — each event stamped with ``trace_id``.

    Returns one ``{key, status, result, error, elapsed_s}`` dict per
    point, in input order; ``status`` is ``cached`` / ``done`` /
    ``failed`` (a result that cannot be fetched fails the point).
    """
    from repro.observatory.progress import ProgressEvent

    def emit(**kwargs):
        if events is not None:
            try:
                events(ProgressEvent(trace_id=trace_id, **kwargs))
            except Exception:
                pass  # observability never fails the run

    total = len(points)
    t0 = time.time()
    emit(event="begin", total=total, jobs=jobs)
    for index, (label, _, answer) in enumerate(points):
        if answer.get("status") not in _TERMINAL:
            emit(event="started", label=label, index=index, total=total)

    outcomes: List[Dict[str, Any]] = []
    for index, (label, spec, answer) in enumerate(points):
        if answer.get("status") not in _TERMINAL:
            answer = dict(answer, **client.submit(spec, wait=True))
        outcome = {"key": answer.get("key"),
                   "status": answer.get("status"), "result": None,
                   "error": str(answer.get("error") or ""),
                   "elapsed_s": float(answer.get("elapsed_s") or 0.0)}
        if outcome["status"] in ("cached", "done"):
            try:
                outcome["result"] = client.result(outcome["key"])
            except (ServiceError, ValueError, KeyError) as exc:
                outcome["status"] = "failed"
                outcome["error"] = f"result fetch failed: {exc}"
        else:
            outcome["status"] = "failed"
        done = index + 1
        if outcome["status"] == "cached":
            emit(event="cached", label=label, index=index,
                 done=done, total=total, source="cache")
        elif outcome["status"] == "done":
            emit(event="done", label=label, index=index,
                 done=done, total=total, source="run",
                 elapsed_s=outcome["elapsed_s"])
        else:
            emit(event="failed", label=label, done=done,
                 total=total, source="failed", error=outcome["error"])
        outcomes.append(outcome)
    emit(event="end", done=total, total=total,
         elapsed_s=time.time() - t0)
    return outcomes


def run_specs(
    client: ServiceClient,
    specs: Sequence[ExperimentSpec],
    events=None,
) -> List[Dict[str, Any]]:
    """Run a grid of specs through the server; the local sweep's
    counterpart to :meth:`SweepRunner.run`.

    Every spec is submitted without waiting (the server dedupes and
    fans out over its own pool), then :func:`await_points` collects
    them.  Returns its outcome dicts, each with its ``spec`` added.
    """
    pool = 1
    try:
        pool = int(client.health().get("pool", 1))
    except (ServiceError, ValueError, TypeError):
        pass
    first = [(spec.label, spec, client.submit(spec, wait=False))
             for spec in specs]
    outcomes = await_points(client, first, jobs=pool, events=events)
    for spec, outcome in zip(specs, outcomes):
        outcome["spec"] = spec
    return outcomes
