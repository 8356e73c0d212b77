"""Ridge-regression ensemble surrogate with spread-based uncertainty.

The model is deliberately small: ``k`` ridge regressions fitted on
bootstrap resamples of the training set, each mapping a feature vector
(:mod:`repro.surrogate.features`) to **log speedup**.  The ensemble mean is
the prediction; the ensemble spread (standard deviation across members) is
the uncertainty estimate that gates the ``auto`` tier — where the members
disagree, the training data under-determined the answer and the exact
simulator must be consulted instead.

Everything is closed-form numpy (one ``solve`` per member at fit time, one
matrix-vector product at predict time), deterministic for a given seed, and
serialises to canonical JSON: the same seed and training grid produce a
byte-identical saved model, which is what lets ``repro check`` treat the
model file as a reproducible artifact rather than an opaque binary.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.tasks import Schedule
from repro.surrogate.features import (
    BASE_FEATURES,
    FEATURE_NAMES,
    base_features,
    machine_signature,
    point_features,
)

#: Methods the surrogate can stand in for.  ``real`` replays always go to
#: the simulator: the surrogate predicts predictions, not ground truth.
SUPPORTED_METHODS = ("ff", "syn")

#: File-format version embedded in saved models.
FORMAT_VERSION = 1

_HAS_LOCKS = BASE_FEATURES.index("has_locks")
_HAS_NESTED = BASE_FEATURES.index("has_nested")


def stratum_key(method: str, has_locks: bool) -> str:
    """The confidence stratum of a grid point.

    The spread threshold is calibrated per (method, lock-bearing) stratum
    rather than globally: the strata fail differently (the FF's greedy
    lock serialisation is systematically hard to regress, mirroring the
    differential harness's expected-divergence taxonomy), and a single
    global threshold lets the worst stratum veto every confident answer
    the others could give.
    """
    return f"{method}|{'locks' if has_locks else 'nolocks'}"


class RidgeEnsemble:
    """``k`` bootstrap-resampled ridge regressions over standardised features.

    ``subsample`` sets the bootstrap resample size as a fraction of the
    training set.  Full-size resamples (1.0) under-state uncertainty for a
    linear model — members converge to near-identical fits even where the
    data is thin — so the default draws half-size resamples, which keeps
    the central member exact while making the spread a live signal.
    """

    def __init__(
        self,
        n_models: int = 8,
        ridge: float = 1e-2,
        seed: int = 0,
        subsample: float = 0.5,
    ) -> None:
        if n_models < 1:
            raise ConfigurationError(
                f"n_models must be >= 1, got {n_models}"
            )
        if ridge <= 0:
            raise ConfigurationError(f"ridge must be > 0, got {ridge}")
        if not 0.0 < subsample <= 1.0:
            raise ConfigurationError(
                f"subsample must be in (0, 1], got {subsample}"
            )
        self.n_models = n_models
        self.ridge = ridge
        self.seed = seed
        self.subsample = subsample
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None
        #: (k, n_features + 1) — per-member weights, bias last.
        self._weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------------- fit

    def fit(self, X, y) -> "RidgeEnsemble":
        """Fit the ensemble on ``X`` (n, d) → ``y`` (n,) log-speedups."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 2:
            raise ConfigurationError(
                f"need a (n>=2, d) training matrix, got X{X.shape} y{y.shape}"
            )
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale < 1e-12] = 1.0  # constant columns pass through unscaled
        self._scale = scale
        Z = (X - self._mean) / self._scale
        Z = np.hstack([Z, np.ones((Z.shape[0], 1))])
        n, d = Z.shape
        penalty = self.ridge * np.eye(d)
        penalty[-1, -1] = 0.0  # never shrink the bias
        rng = np.random.default_rng(self.seed)
        weights = np.empty((self.n_models, d))
        resample = max(2, int(n * self.subsample))
        for k in range(self.n_models):
            # First member sees the full set (the "central" model); the rest
            # are bootstrap resamples whose disagreement is the spread.
            idx = (
                np.arange(n)
                if k == 0
                else np.sort(rng.integers(0, n, size=resample))
            )
            A = Z[idx]
            b = y[idx]
            # Penalty scales with the resample so members are shrunk
            # equally hard per observation.
            weights[k] = np.linalg.solve(
                A.T @ A + penalty * (len(idx) / n), A.T @ b
            )
        self._weights = weights
        return self

    @property
    def fitted(self) -> bool:
        return self._weights is not None

    # --------------------------------------------------------------- predict

    def predict(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(ensemble mean, ensemble spread) of log speedup for ``X`` (n, d)."""
        if not self.fitted:
            raise ConfigurationError("predict() before fit()")
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        Z = (X - self._mean) / self._scale
        Z = np.hstack([Z, np.ones((Z.shape[0], 1))])
        per_member = Z @ self._weights.T  # (n, k)
        mean = per_member.mean(axis=1)
        spread = per_member.std(axis=1)
        return mean, spread

    def predict_one(self, x) -> tuple[float, float]:
        """(mean, spread) for a single feature vector."""
        mean, spread = self.predict(np.asarray(x, dtype=np.float64))
        return float(mean[0]), float(spread[0])

    # ----------------------------------------------------------- persistence

    def to_dict(self) -> dict:
        """JSON-ready parameters of the fitted ensemble; raises
        :class:`ConfigurationError` if it is unfitted."""
        if not self.fitted:
            raise ConfigurationError("cannot serialise an unfitted ensemble")
        return {
            "n_models": self.n_models,
            "ridge": self.ridge,
            "seed": self.seed,
            "subsample": self.subsample,
            "mean": self._mean.tolist(),
            "scale": self._scale.tolist(),
            "weights": self._weights.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RidgeEnsemble":
        ens = cls(
            n_models=int(payload["n_models"]),
            ridge=float(payload["ridge"]),
            seed=int(payload["seed"]),
            subsample=float(payload.get("subsample", 1.0)),
        )
        ens._mean = np.asarray(payload["mean"], dtype=np.float64)
        ens._scale = np.asarray(payload["scale"], dtype=np.float64)
        ens._weights = np.asarray(payload["weights"], dtype=np.float64)
        return ens


class SurrogateAnswer:
    """One surrogate prediction: speedup, uncertainty, confidence verdict."""

    __slots__ = ("speedup", "spread", "confident")

    def __init__(self, speedup: float, spread: float, confident: bool) -> None:
        self.speedup = speedup
        self.spread = spread
        self.confident = confident

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SurrogateAnswer(speedup={self.speedup:.3f}, "
            f"spread={self.spread:.4f}, confident={self.confident})"
        )


class Surrogate:
    """A trained surrogate: ensemble + feature schema + uncertainty gate.

    This is the saved artifact the prediction tiers consult.  ``answer``
    returns None for grid points outside the model's competence (method,
    paradigm, or machine shape it was never trained on) — the caller falls
    back to the exact simulator; otherwise it returns a
    :class:`SurrogateAnswer` whose ``confident`` flag compares the
    ensemble spread against the per-stratum threshold calibrated at
    training time (``auto`` tier falls back when False).

    ``spread_thresholds`` maps :func:`stratum_key` strings to thresholds;
    a stratum absent from the map (or calibrated to 0.0) never answers
    confidently.
    """

    def __init__(
        self,
        model: RidgeEnsemble,
        spread_thresholds: dict,
        machines: Sequence[tuple],
        paradigms: Sequence[str] = ("omp",),
        meta: Optional[dict] = None,
    ) -> None:
        self.model = model
        self.spread_thresholds = {
            str(k): float(v) for k, v in spread_thresholds.items()
        }
        self.machines = [tuple(m) for m in machines]
        self.paradigms = tuple(paradigms)
        self.meta = dict(meta or {})
        #: Tiny id-keyed cache of base extraction state per live profile
        #: object (the profile rides along to pin the id), so warm
        #: single-point predictions skip the tree walk.
        self._base_cache: dict[int, tuple[object, object]] = {}
        self._base_cache_size = 32

    # ------------------------------------------------------------ answering

    def supports(
        self, machine, method: str, paradigm: str, n_threads: int
    ) -> bool:
        """True if this model may answer for the given grid point at all."""
        return (
            method in SUPPORTED_METHODS
            and paradigm in self.paradigms
            and n_threads >= 1
            and machine_signature(machine) in self.machines
        )

    def _base_for(self, profile, machine):
        key = id(profile)
        hit = self._base_cache.get(key)
        if hit is not None and hit[0] is profile:
            return hit[1]
        base = base_features(profile, machine)
        if len(self._base_cache) >= self._base_cache_size:
            self._base_cache.pop(next(iter(self._base_cache)))
        self._base_cache[key] = (profile, base)
        return base

    def answer(
        self,
        profile,
        machine,
        method: str,
        paradigm: str,
        schedule: Schedule | str,
        n_threads: int,
        memory_model: bool = True,
    ) -> Optional[SurrogateAnswer]:
        """Predict one grid point, or None where the model has no standing."""
        if not self.supports(machine, method, paradigm, n_threads):
            return None
        if isinstance(schedule, str):
            schedule = Schedule.parse(schedule)
        base = self._base_for(profile, machine)
        x = point_features(
            base, machine, method, paradigm, schedule, n_threads, memory_model
        )
        log_speedup, spread = self.model.predict_one(x)
        # Clamp into the band the invariant checker enforces for the method
        # being stood in for — a surrogate answer must never trip a bound no
        # exact answer could.  FF is capped at exactly t; SYN at the core
        # count for nested trees, min(t, cores) otherwise.
        if method == "ff":
            cap = float(n_threads)
        else:
            nested = base.vector[_HAS_NESTED] > 0.0
            cap = float(
                machine.n_cores
                if nested
                else min(n_threads, machine.n_cores)
            )
        speedup = min(float(np.exp(log_speedup)), cap)
        speedup = max(speedup, 1e-6)
        threshold = self.spread_thresholds.get(
            stratum_key(method, base.vector[_HAS_LOCKS] > 0.0), 0.0
        )
        return SurrogateAnswer(
            speedup, spread, confident=threshold > 0.0 and spread <= threshold
        )

    # ----------------------------------------------------------- persistence

    def to_dict(self) -> dict:
        """The model file's payload: format tag, features, spread
        thresholds, coverage and the ensemble's parameters."""
        return {
            "format": FORMAT_VERSION,
            "kind": "repro-surrogate",
            "feature_names": list(FEATURE_NAMES),
            "spread_thresholds": dict(sorted(self.spread_thresholds.items())),
            "machines": [list(m) for m in self.machines],
            "paradigms": list(self.paradigms),
            "meta": self.meta,
            "model": self.model.to_dict(),
        }

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical training runs."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def save(self, path) -> None:
        """Write :meth:`to_json` to ``path``."""
        Path(path).write_text(self.to_json())

    @classmethod
    def from_dict(cls, payload: dict) -> "Surrogate":
        if payload.get("kind") != "repro-surrogate":
            raise ConfigurationError("not a repro surrogate model file")
        if payload.get("format") != FORMAT_VERSION:
            raise ConfigurationError(
                f"surrogate model format {payload.get('format')!r} != "
                f"{FORMAT_VERSION}; retrain with repro.surrogate.train"
            )
        names = tuple(payload.get("feature_names", ()))
        if names != FEATURE_NAMES:
            raise ConfigurationError(
                "surrogate model was trained on a different feature schema; "
                "retrain with repro.surrogate.train"
            )
        return cls(
            model=RidgeEnsemble.from_dict(payload["model"]),
            spread_thresholds=dict(payload["spread_thresholds"]),
            machines=[tuple(m) for m in payload["machines"]],
            paradigms=tuple(payload.get("paradigms", ("omp",))),
            meta=payload.get("meta", {}),
        )

    @classmethod
    def load(cls, path) -> "Surrogate":
        return cls.from_dict(json.loads(Path(path).read_text()))
