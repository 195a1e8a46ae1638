"""One benchmark operation: a CLI ``main(argv)`` call run in-process with
its output captured, or one library call.  Executing an op times the call
alone; the output check runs afterwards, outside the timed span.

Every op ends in one outcome: ``ok``, or a failure kind.  The kinds are
``exit1``/``exit2``/``exit3`` (the CLI returned that code), ``raw:<Type>``
(an exception escaped the call) and ``check:<name>`` (the call returned but
its output failed the named check).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


class CheckFailed(Exception):
    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"{name}: {detail}" if detail else name)
        self.name = name


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


def cli_call(argv: list[str]) -> CliResult:
    # Looked up at call time so the traced run sees its wrapper.
    import stpanto.cli as cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


@dataclass
class Op:
    """``run`` is the timed call; ``check`` raises CheckFailed on a wrong
    output; ``render`` turns a library result into the text that is
    digested; ``prepare`` runs untimed before the call (e.g. writes the
    document a ``verify`` reads)."""

    cls: str
    run: Callable[[], object]
    check: Callable[[object], None]
    render: Callable[[object], str] = repr
    prepare: Callable[[], None] | None = None
    meta: dict = field(default_factory=dict)
    last: object = None  # the latest result, read by a following verify op

    @classmethod
    def cli(cls, name: str, argv: list[str], check, **kw) -> "Op":
        meta = kw.pop("meta", {})
        meta["argv"] = argv
        return cls(name, lambda: cli_call(argv), check, meta=meta, **kw)


@dataclass
class Outcome:
    cls: str
    status: str
    latency: float
    digest: str
    detail: str = ""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def execute(op: Op, before_check: Callable[[], None] | None = None,
            check: bool = True) -> Outcome:
    """Run one op: prepare, time the call, then classify and check.

    ``before_check`` runs between the call and the check (the traced run
    uses it to stop recording, so checks do not count as layer work).
    With ``check=False`` a returned result gets the status ``unchecked``;
    a repeat pass uses that when its digest matches a checked pass."""
    if op.prepare is not None:
        op.prepare()
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # classified, never swallowed silently
        latency = perf_counter() - t0
        if before_check is not None:
            before_check()
        op.last = None
        kind = f"raw:{type(exc).__name__}"
        return Outcome(op.cls, kind, latency, _digest(f"{kind}:{exc}"), str(exc)[:200])
    latency = perf_counter() - t0
    if before_check is not None:
        before_check()
    op.last = result
    if isinstance(result, CliResult):
        text = f"{result.rc}\n{result.stdout}"
        if result.rc != 0:
            return Outcome(op.cls, f"exit{result.rc}", latency, _digest(text),
                           result.stderr.strip()[:200])
    else:
        text = op.render(result)
    if not check:
        return Outcome(op.cls, "unchecked", latency, _digest(text))
    try:
        op.check(result)
    except CheckFailed as failure:
        return Outcome(op.cls, f"check:{failure.name}", latency, _digest(text),
                       str(failure)[:200])
    return Outcome(op.cls, "ok", latency, _digest(text))
