"""Session configuration: signature fields plus output and fuzz settings."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .algebra import WeylAlgebra
from .errors import SignatureMismatch

__all__ = ["SessionConfig", "load_config", "build_algebra"]

_FORMATS = ("text", "structured")
# a derived p or t holds n * rank entries; past this a config must list them
_MAX_DERIVED = 10_000


def _check_int(name: str, value) -> None:
    # bool is an int subclass, but true/false is never a count or an exponent
    if not isinstance(value, int) or isinstance(value, bool):
        raise SignatureMismatch(f"{name}: expected an integer, got {value!r}")


@dataclass(frozen=True)
class SessionConfig:
    n: int = 1
    rank: int = 1
    # absent p is (2,) * n and absent t is ((0,) * rank,) * n
    p: tuple[int, ...] | None = None
    t: tuple[tuple[int, ...], ...] | None = None
    hbar_order: int | None = None
    t_shift: bool = False
    format: str = "text"
    seed: int = 0

    def __post_init__(self):
        if self.format not in _FORMATS:
            raise SignatureMismatch(f"format must be one of {_FORMATS}")
        for name in ("n", "rank", "seed"):
            _check_int(name, getattr(self, name))
        if self.hbar_order is not None:
            _check_int("hbar_order", self.hbar_order)
        if not isinstance(self.t_shift, bool):
            raise SignatureMismatch("t_shift must be true or false")
        if self.p is None or self.t is None:
            # a negative count derives an empty list; clamping first keeps an
            # overlong negative from overflowing the sequence repeat
            n, rank = max(self.n, 0), max(self.rank, 0)
            if n * max(rank, 1) > _MAX_DERIVED:
                raise SignatureMismatch(f"p and t are derived only for n * rank <= {_MAX_DERIVED}")
            if self.p is None:
                object.__setattr__(self, "p", (2,) * n)
            if self.t is None:
                object.__setattr__(self, "t", ((0,) * rank,) * n)
        if not isinstance(self.p, (list, tuple)) or not isinstance(self.t, (list, tuple)):
            raise SignatureMismatch("p and t must be lists")
        for v in self.p:
            _check_int("p", v)
        for row in self.t:
            if not isinstance(row, (list, tuple)):
                raise SignatureMismatch("t must be a list of integer lists")
            for c in row:
                _check_int("t", c)
        object.__setattr__(self, "p", tuple(self.p))
        object.__setattr__(self, "t", tuple(tuple(row) for row in self.t))

    def replace(self, **kw) -> "SessionConfig":
        return dataclasses.replace(self, **kw)


def load_config(path: str) -> SessionConfig:
    """Read a JSON config file with the SessionConfig fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SignatureMismatch(f"cannot read config file: {exc}")
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, and overlong integer literals
        raise SignatureMismatch(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise SignatureMismatch("config file must hold one JSON object")
    unknown = set(raw) - {f.name for f in dataclasses.fields(SessionConfig)}
    if unknown:
        raise SignatureMismatch(f"unknown config fields: {sorted(unknown)}")
    return SessionConfig(**raw)


def build_algebra(config: SessionConfig) -> WeylAlgebra:
    """Algebra for a session; signature invariants are validated on build."""
    base = WeylAlgebra(n=config.n, rank=config.rank, p=config.p, t=config.t)
    if config.t_shift:
        order = config.hbar_order if config.hbar_order is not None else 1
        return base.with_t_shift(order)
    if config.hbar_order is not None:
        return base.with_hbar(config.hbar_order)
    return base
