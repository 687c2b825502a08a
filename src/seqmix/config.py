"""Configuration files: nested key-value sections (INI dialect).

A model file defines the problem instance; an experiment file adds
expectation, solver, sweep, dataset, simulator and training sections, and
states each setting in one of them: `run-gamp`, `run-rbp` and `run-erm` all
draw the datasets of [data].  Every shipped loss states its test error in
closed form, so no section sizes a test set and no test error draws a node.
The full field reference lives in the README's configuration section.
Instances from the shipped zoo can be referenced by name instead of spelling
out dimensions, class law and spectral atoms.  A validated
`ExperimentConfig` pickles, so a process pool is handed it whole.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .erm import TrainConfig
from .errors import SpecValidationError
from .gaussian import GH_MAX_DIM, McPlan, quadrature_dim
from .losses import loss_by_name
from .model import ClassLaw, Dimensions, make_atom, ModelSpec, SpectralMeasure, validate_spec
from .saddle import SolverConfig
from .zoo import instance_by_name


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


# ----------------------------------------------------------------------
# Model section.
# ----------------------------------------------------------------------

def model_spec_from_parser(cp: configparser.ConfigParser) -> ModelSpec:
    if cp.has_section("model") and cp.has_option("model", "instance"):
        name = cp.get("model", "instance")
        kwargs = {}
        if cp.has_option("model", "alpha"):
            kwargs["alpha"] = cp.getfloat("model", "alpha")
        if cp.has_option("model", "lambda"):
            kwargs["lam"] = cp.getfloat("model", "lambda")
        try:
            spec = instance_by_name(name, **kwargs)
        except KeyError as exc:
            raise SpecValidationError(str(exc)) from exc
        return replace(spec, name=cp.get("model", "name", fallback=spec.name))

    for section in ("dimensions", "class_law", "spectral_measure", "loss"):
        if not cp.has_section(section):
            raise SpecValidationError(f"config missing [{section}] section")

    dims = Dimensions(
        L=cp.getint("dimensions", "L"),
        r=cp.getint("dimensions", "r"),
        t=cp.getint("dimensions", "t"),
        K=tuple(_ints(cp.get("dimensions", "K"))),
        alpha=cp.getfloat("dimensions", "alpha"),
        lam=cp.getfloat("dimensions", "lambda"),
    )

    support, probs = [], []
    for key in sorted(cp.options("class_law")):
        body = cp.get("class_law", key)
        left, right = body.split(":")
        support.append(tuple(_ints(left)))
        probs.append(float(right))
    class_law = ClassLaw(tuple(support), tuple(probs))

    atoms = []
    for key in sorted(cp.options("spectral_measure")):
        parts = cp.get("spectral_measure", key).split("|")
        if len(parts) != 4:
            raise SpecValidationError(
                f"atom line {key!r} must read 'weight | gamma | tau | pi'"
            )
        weight = float(parts[0])
        atoms.append(
            make_atom(
                dims, weight,
                gamma=np.asarray(_floats(parts[1])),
                tau=np.asarray(_floats(parts[2])),
                pi=np.asarray(_floats(parts[3])),
            )
        )
    nu = SpectralMeasure(tuple(atoms))

    loss_name = cp.get("loss", "name")
    loss_kwargs = {
        k: float(v) for k, v in cp.items("loss") if k != "name"
    }
    try:
        loss = loss_by_name(loss_name, **loss_kwargs)
    except KeyError as exc:
        raise SpecValidationError(str(exc)) from exc
    except TypeError as exc:
        # a [loss] key that the named loss takes no parameter for
        raise SpecValidationError(f"[loss] {exc}") from exc

    name = cp.get("model", "name", fallback=loss_name) if cp.has_section("model") else loss_name
    return ModelSpec(dims=dims, class_law=class_law, nu=nu, loss=loss, name=name)


# ----------------------------------------------------------------------
# Experiment sections.
# ----------------------------------------------------------------------

@dataclass
class DataOptions:
    """The datasets of the per-seed commands: size and seeds.  A fit's test
    error is exact, so no test set is drawn."""

    d: int = 1000
    seeds: tuple[int, ...] = (0,)

    def violations(self) -> list[str]:
        rules = {
            "d must be >= 1": self.d >= 1,
            "seeds must be >= 0": min(self.seeds, default=0) >= 0,
        }
        return [f"[data] {rule}" for rule, ok in rules.items() if not ok]


@dataclass
class GampOptions:
    """GAMP's iteration; rBP reads max_iters and tol."""

    max_iters: int = 200
    tol: float = 1e-8
    damping: float = 0.3

    def violations(self) -> list[str]:
        rules = {
            "max_iters must be >= 1": self.max_iters >= 1,
            "tol must be positive and finite": 0.0 < self.tol < np.inf,
            "damping must lie in [0, 1)": 0.0 <= self.damping < 1.0,
        }
        return [f"[gamp] {rule}" for rule, ok in rules.items() if not ok]


@dataclass
class ExperimentConfig:
    spec: ModelSpec
    solver: SolverConfig
    alphas: tuple[float, ...]
    lambdas: tuple[float, ...]
    source_path: str
    source_hash: str  # sha256 of the bytes parsed, first 12 hex digits
    data: DataOptions = field(default_factory=DataOptions)
    gamp: GampOptions = field(default_factory=GampOptions)
    erm: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str = "out"

    def violations(self) -> list[str]:
        out = []
        if not self.alphas:
            out.append("ExperimentConfig: alpha grid is empty")
        if not self.lambdas:
            out.append("ExperimentConfig: lambda grid is empty")
        # the model's own alpha and lambda run in the per-seed commands, the
        # grid's in the solver: each is held to the rule of Dimensions, the
        # model's by validate_spec along with its class law, measure and loss
        dims = self.spec.dims
        grid = [replace(dims, alpha=a, lam=x) for a in self.alphas for x in self.lambdas]
        out += dict.fromkeys(validate_spec(self.spec) + [
            rule for point in grid for rule in point.violations()])
        if any(c in self.spec.name for c in ",\n"):
            out.append(f"ExperimentConfig: model name {self.spec.name!r} holds a comma or a "
                       "newline, which would split its table cell")
        out += self.solver.violations()
        out += self.data.violations()
        out += self.gamp.violations()
        out += self.erm.violations()
        if self.solver.mc_plan.gh_order > 0:
            # tensor quadrature caps the dimension of every node set
            dims = self.spec.dims
            gh_dim = quadrature_dim((dims.L, dims.r, dims.t), self.spec.loss.depends_on_y)
            if gh_dim > GH_MAX_DIM:
                out.append(
                    f"ExperimentConfig: gh_order > 0 needs a {gh_dim}-dimensional "
                    f"Gaussian quadrature, above the limit of {GH_MAX_DIM}; "
                    "use Monte Carlo (gh_order = 0)"
                )
        return out


# How a key is read, by the annotation of the option field it sets.
_READERS = {
    "int": configparser.ConfigParser.getint,
    "float": configparser.ConfigParser.getfloat,
    "bool": configparser.ConfigParser.getboolean,
    "str": configparser.ConfigParser.get,
    "tuple[int, ...]": lambda cp, section, key: tuple(_ints(cp.get(section, key))),
}


def _option_fields(cls) -> dict[str, str]:
    """The fields of an options dataclass that a config key can set."""
    return {f.name: f.type for f in fields(cls) if f.type in _READERS}


def _options(cp: configparser.ConfigParser, section: str, cls, **given):
    """cls built from the keys of [section]; a key left out keeps cls's default."""
    kwargs = dict(given)
    types = _option_fields(cls)
    for key in cp.options(section) if cp.has_section(section) else ():
        kwargs[key] = _READERS[types[key]](cp, section, key)
    return cls(**kwargs)


# The keys each section accepts, lower-cased as the parser stores them.
# None accepts any key: class tuples and atoms are one line each, and the
# loss's keys are its constructor's parameters, checked by calling it.
SECTION_KEYS = {
    "model": {"instance", "name", "alpha", "lambda"},
    "dimensions": {"l", "r", "t", "k", "alpha", "lambda"},
    "class_law": None,
    "spectral_measure": None,
    "loss": None,
    "mc": set(_option_fields(McPlan)),
    "solver": set(_option_fields(SolverConfig)),
    "sweep": {"alphas", "lambdas"},
    "data": set(_option_fields(DataOptions)),
    "gamp": set(_option_fields(GampOptions)),
    "erm": set(_option_fields(TrainConfig)),
    "output": {"dir"},
}


# The [data] key that a dataset key set in another section belongs to.
_DATA_HINTS = {
    "d": "the dataset size is [data] d",
    "seeds": "the dataset seeds are [data] seeds",
}


def _check_keys(cp: configparser.ConfigParser) -> None:
    """Reject a section or key that nothing reads, e.g. a misspelled option."""
    for section in cp.sections():
        if section not in SECTION_KEYS:
            raise SpecValidationError(
                f"unknown config section [{section}]; known: {sorted(SECTION_KEYS)}"
            )
        known = SECTION_KEYS[section]
        unknown = sorted(set(cp.options(section)) - known) if known is not None else []
        if unknown:
            # a model is size-free, and the per-seed runs share one dataset
            hint = "".join(f"; {_DATA_HINTS[key]}" for key in unknown if key in _DATA_HINTS)
            raise SpecValidationError(
                f"unknown key(s) in [{section}]: {', '.join(unknown)}; "
                f"known: {sorted(known)}{hint}"
            )


def _read_experiment(path, **plan_overrides) -> ExperimentConfig:
    """The config at path, with each McPlan field of plan_overrides that is
    not None set on its [mc] plan."""
    data = Path(path).read_bytes()
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read_string(data.decode())
    _check_keys(cp)
    spec = model_spec_from_parser(cp)
    given = {key: value for key, value in plan_overrides.items() if value is not None}
    plan = replace(_options(cp, "mc", McPlan), **given)
    return ExperimentConfig(
        spec=spec,
        solver=_options(cp, "solver", SolverConfig, mc_plan=plan),
        alphas=tuple(_floats(cp.get("sweep", "alphas", fallback=str(spec.dims.alpha)))),
        lambdas=tuple(_floats(cp.get("sweep", "lambdas", fallback=str(spec.dims.lam)))),
        data=_options(cp, "data", DataOptions),
        gamp=_options(cp, "gamp", GampOptions),
        erm=_options(cp, "erm", TrainConfig),
        out_dir=cp.get("output", "dir", fallback="out"),
        source_path=str(path),
        source_hash=hashlib.sha256(data).hexdigest()[:12],
    )


def load_experiment(
    path, mc_samples: int | None = None, seed: int | None = None
) -> ExperimentConfig:
    """The experiment config at path, read once, with the command line's
    --mc-samples and --seed (None: as the file says) set on its [mc] plan,
    and then validated whole.  Every failure, a file that cannot be read
    included, is a SpecValidationError naming the path."""
    try:
        cfg = _read_experiment(path, n_samples=mc_samples, seed=seed)
    except (OSError, ValueError, configparser.Error) as exc:
        # a missing file or a directory, a malformed section header or a
        # value of the wrong type
        raise SpecValidationError(f"cannot read {path}: {exc}") from exc
    bad = cfg.violations()
    if bad:
        raise SpecValidationError(f"{path}: " + "; ".join(bad))
    return cfg
