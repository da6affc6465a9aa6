"""Run configuration with flags > environment > file > defaults precedence."""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Set

from .numerics import Mode, NumericContext

ENV_PREFIX = "PREMIP_"

# the NumericContext fields a PresolveOptions can set
_TOLERANCES = ("epsilon", "feastol", "hugeval")

# externally visible parameter names
_PARAM_FIELDS = {
    "presolve.threads": ("threads", int),
    "presolve.abortfac": ("abortfac", float),
    "presolve.apply_results_immediately_if_run_sequentially":
        ("apply_immediately", bool),
    "presolve.maxrounds": ("max_rounds", int),
    "message.verbosity": ("verbosity", int),
    "numerics.mode": ("numeric_mode", str),
    "numerics.epsilon": ("epsilon", float),
    "numerics.feastol": ("feastol", float),
    "numerics.hugeval": ("hugeval", float),
}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class PresolveOptions:
    threads: int = 1            # 0 = auto-detect
    abortfac: float = 8e-4
    apply_immediately: bool = False
    verbosity: int = 1
    # the numerics; None means the problem's (make_ctx: the mode's default)
    numeric_mode: Optional[str] = None
    epsilon: Optional[float] = None
    feastol: Optional[float] = None
    hugeval: Optional[float] = None
    max_rounds: int = 500
    disabled: Set[str] = field(default_factory=set)

    def make_ctx(self) -> NumericContext:
        """The context the numerics fields name, for reading a problem:
        float64 unless numeric_mode says otherwise, and the mode's default
        tolerances for the fields left None.  A rational context with a
        nonzero tolerance raises ValueError."""
        mode = Mode(self.numeric_mode or Mode.FLOAT64.value)
        base = (NumericContext.rational() if mode is Mode.RATIONAL
                else NumericContext.float64())
        return replace(base, **{name: getattr(self, name)
                                for name in _TOLERANCES
                                if getattr(self, name) is not None})

    def check_ctx(self, ctx: NumericContext) -> None:
        """Raise ValueError naming the first numerics field that is set and
        differs from ctx, the context of the problem to be presolved."""
        fields = [("numeric_mode", self.numeric_mode, ctx.mode.value)]
        fields += [(name, getattr(self, name), getattr(ctx, name))
                   for name in _TOLERANCES]
        for name, value, have in fields:
            if value is not None and value != have:
                raise ValueError(
                    f"PresolveOptions.{name} is {value!r}, but the problem "
                    f"was built with {have!r}")

    def resolved_threads(self) -> int:
        if self.threads == 0:
            return os.cpu_count() or 1
        return max(1, self.threads)

    def is_enabled(self, presolver: str) -> bool:
        return presolver not in self.disabled

    def set_param(self, key: str, raw: str) -> None:
        if key in _PARAM_FIELDS:
            attr, typ = _PARAM_FIELDS[key]
            value = _parse_bool(raw) if typ is bool else typ(raw)
            setattr(self, attr, value)
            return
        if key.startswith("presolve.") and key.endswith(".enabled"):
            name = key[len("presolve."):-len(".enabled")]
            if _parse_bool(raw):
                self.disabled.discard(name)
            else:
                self.disabled.add(name)
            return
        raise KeyError(f"unknown parameter {key!r}")

    @staticmethod
    def from_sources(flag_params: Optional[Mapping[str, str]] = None,
                     env: Optional[Mapping[str, str]] = None,
                     file_params: Optional[Mapping[str, str]] = None
                     ) -> "PresolveOptions":
        """Build options with precedence flags > env > file > defaults."""
        opts = PresolveOptions()
        for key, raw in (file_params or {}).items():
            opts.set_param(key, raw)
        env = os.environ if env is None else env
        for key in list(_PARAM_FIELDS):
            env_key = ENV_PREFIX + key.replace(".", "_").upper()
            if env_key in env:
                opts.set_param(key, env[env_key])
        for key, raw in (flag_params or {}).items():
            opts.set_param(key, raw)
        return opts


def read_param_file(path: str) -> Dict[str, str]:
    """key = value lines; '#' starts a comment."""
    out: Dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, raw = stripped.split("=", 1)
            out[key.strip()] = raw.strip()
    return out
