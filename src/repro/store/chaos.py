"""Deterministic fault injection for campaign soak testing.

The paper's result grid is a multi-hour fleet of independent runs; the
failures such fleets actually hit -- hung runs, OOM-killed workers,
transient exceptions -- are rare enough that the scheduler's recovery
paths would otherwise only execute in production.  This module makes
them reproducible: :class:`ChaosRunner` wraps the scheduler's
``run_fn`` and injects faults on a schedule derived *only* from
``(seed, fingerprint, attempt)``, so the same spec produces the same
faults on every host, every time, at any ``workers``.

Fault types (rates partition the unit interval, so they are mutually
exclusive per attempt):

- ``crash`` -- ``os._exit`` inside a pool worker, producing the
  ``BrokenProcessPool`` the scheduler must recover from.  Executed in
  the scheduler's own process (``workers=1``) it becomes an exception,
  so the injection cannot kill the interpreter that is testing it.
- ``hang`` -- sleeps ``hang_s`` seconds.  In a pool worker, with a
  scheduler ``timeout`` shorter than ``hang_s``, this exercises the
  hard worker-kill path; a hang that is allowed to finish (always the
  case at ``workers=1``) raises
  :class:`~repro.experiments.runner.RunTimeout`, the cooperative
  timeout path.
- ``exc`` -- raises :class:`ChaosFault`, a plain transient exception.

With the default ``once=True`` a fault fires only on a run's first
attempt, so any ``retries >= 1`` campaign is guaranteed to converge to
the same result set as a fault-free one (``retries >= 2`` when crashes
are enabled: a crash also charges the innocent runs that shared the
pool).  ``once=False`` re-rolls every attempt -- a soak mode where
convergence is only probabilistic.

Exposed on the CLI as ``repro-gsnet campaign --chaos <spec>`` with
specs like ``"crash=0.2,exc=0.3,seed=7"``; see :meth:`ChaosSpec.parse`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass

from repro.experiments.runner import RunTimeout
from repro.store.fingerprint import config_fingerprint
from repro.store.scheduler import _supported_kwargs

__all__ = ["ChaosSpec", "ChaosRunner", "ChaosFault"]

#: Exit status of an injected worker crash (visible in worker logs).
CRASH_EXIT_CODE = 73


class ChaosFault(RuntimeError):
    """The transient exception injected by ``exc`` faults."""


@dataclass(frozen=True)
class ChaosSpec:
    """A deterministic fault schedule.

    Args:
        crash: probability of a worker-killing crash per eligible attempt.
        hang: probability of a hang per eligible attempt.
        exc: probability of a transient exception per eligible attempt.
        seed: schedule seed; same seed + same fingerprints = same faults.
        hang_s: how long an injected hang sleeps before giving up.
        once: inject only on each run's first attempt, so retried runs
            always succeed (the mode CI uses); False re-rolls every
            attempt.
    """

    crash: float = 0.0
    hang: float = 0.0
    exc: float = 0.0
    seed: int = 0
    hang_s: float = 30.0
    once: bool = True

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "exc"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"chaos rate {name} must be in [0, 1], got {rate}"
                )
        if self.crash + self.hang + self.exc > 1.0:
            raise ValueError(
                "chaos rates partition one attempt: crash + hang + exc "
                f"must be <= 1, got {self.crash + self.hang + self.exc:g}"
            )
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be positive, got {self.hang_s}")

    @classmethod
    def parse(cls, spec: str) -> "ChaosSpec":
        """Build a spec from a ``key=value,key=value`` string.

        Keys: ``crash``/``hang``/``exc`` (rates), ``seed`` (int),
        ``hang_s`` (seconds), ``once`` (true/false).  Example::

            ChaosSpec.parse("crash=0.2,exc=0.3,seed=7,hang_s=5")
        """
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise ValueError(
                    f"bad chaos spec item {part!r}: expected key=value"
                )
            try:
                if key in ("crash", "hang", "exc", "hang_s"):
                    kwargs[key] = float(value)
                elif key == "seed":
                    kwargs[key] = int(value)
                elif key == "once":
                    if value.lower() not in ("true", "false", "1", "0"):
                        raise ValueError(value)
                    kwargs[key] = value.lower() in ("true", "1")
                else:
                    raise KeyError(key)
            except KeyError:
                raise ValueError(
                    f"unknown chaos spec key {key!r}; options: "
                    "crash, hang, exc, seed, hang_s, once"
                ) from None
            except ValueError as err:
                raise ValueError(
                    f"bad chaos spec value for {key!r}: {value!r}"
                ) from err
        return cls(**kwargs)

    def decide(self, fingerprint: str, attempt: int) -> str | None:
        """The fault for one attempt: "crash", "hang", "exc", or None.

        Pure function of ``(seed, fingerprint, attempt)`` -- no process
        state, no RNG object -- so pool workers, in-process runs, and
        test assertions all see the same schedule.
        """
        if self.once and attempt > 1:
            return None
        digest = hashlib.sha256(
            f"{self.seed}|{fingerprint}|{attempt}".encode()
        ).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        if u < self.crash:
            return "crash"
        if u < self.crash + self.hang:
            return "hang"
        if u < self.crash + self.hang + self.exc:
            return "exc"
        return None


class ChaosRunner:
    """A picklable ``run_fn`` wrapper that injects the spec's faults.

    Accepts the scheduler's optional ``attempt``/``timeout_s``/``warm``
    dispatch keywords (the attempt number drives the schedule) and
    forwards to the wrapped function whichever of them it understands.
    """

    def __init__(self, run_fn, spec: ChaosSpec):
        self.run_fn = run_fn
        self.spec = spec
        self._inner_kwargs = _supported_kwargs(run_fn)

    def __call__(self, config, attempt: int = 1,
                 timeout_s: float | None = None, warm=None):
        fault = self.spec.decide(config_fingerprint(config), attempt)
        if fault == "crash":
            if multiprocessing.parent_process() is not None:
                os._exit(CRASH_EXIT_CODE)
            # Inline execution: an actual exit would take the campaign
            # (and the test runner) down with it.
            raise ChaosFault(
                f"chaos: injected crash (inline) on attempt {attempt}"
            )
        if fault == "hang":
            time.sleep(self.spec.hang_s)
            raise RunTimeout(
                f"chaos: injected hang outlived {self.spec.hang_s:g}s "
                f"on attempt {attempt}"
            )
        if fault == "exc":
            raise ChaosFault(
                f"chaos: injected transient fault on attempt {attempt}"
            )
        offered = {"attempt": attempt, "timeout_s": timeout_s, "warm": warm}
        return self.run_fn(config, **{
            name: value for name, value in offered.items()
            if value is not None and name in self._inner_kwargs
        })

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChaosRunner {self.spec} around {self.run_fn!r}>"
