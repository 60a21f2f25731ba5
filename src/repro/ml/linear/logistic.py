"""L1-regularised logistic regression via accelerated proximal gradient.

Minimises ``(1/n) Σ log(1 + exp(-s_i w·x_i)) + lam ||w||_1`` (bias
unpenalised) with FISTA and soft-thresholding.  The step size comes from
the logistic-loss Lipschitz bound ``L = ||X||²_2 / (4n)``, estimated by
power iteration.  :class:`LogisticRegressionPath` mirrors glmnet's
interface: fit a geometric sequence of ``nlambda`` penalties from
``lambda_max`` (smallest penalty with an all-zero solution) downward,
warm-starting each fit from the previous solution.

All matrix work goes through :mod:`repro.ml.sparse`: on a gathered
shard the margins are per-feature gathers of ``w`` and the gradient is
a scatter-add into the active one-hot columns, so one FISTA iteration
costs ``O(n·d)`` regardless of the encoded width; on a factorized shard
each blocked dimension costs ``O(n + |D|·d_R)`` instead.

Because the logistic gradient is a sum over examples, FISTA streams:
:meth:`L1LogisticRegression.fit_stream` runs the *exact* full-batch
iteration while visiting the data as bounded shards, one pass per
iteration; the first :data:`RESIDENT_SHARDS` shards stay prepared
between passes, the rest are re-read each pass.  ``fit`` itself
delegates to ``fit_stream`` with the whole matrix as a single
shard, so the in-memory and out-of-core paths share one code path and a
single-shard streaming fit is bit-identical to an in-memory fit by
construction.  :meth:`L1LogisticRegression.partial_fit` is the cheaper
inexact alternative: it advances FISTA on one shard's data only, with
the momentum restart that makes shard epochs stable.
"""

from __future__ import annotations

import numpy as np

from repro.data.source import MatrixSource
from repro.ml import sparse
from repro.ml.base import Estimator, check_fitted, check_X_y
from repro.ml.encoding import CategoricalMatrix
from repro.obs import tracer
from repro.rng import ensure_rng


def _soft_threshold(w: np.ndarray, t: float) -> np.ndarray:
    return np.sign(w) * np.maximum(np.abs(w) - t, 0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    e = np.exp(z[~positive])
    out[~positive] = e / (1.0 + e)
    return out


def _lipschitz_bound(X, seed: int = 0, iterations: int = 30) -> float:
    """Upper bound on the logistic-loss gradient Lipschitz constant.

    ``X`` may be any :mod:`repro.ml.sparse` operand (or a dense array);
    power iteration only needs the two matrix-vector products, which
    every layout provides.
    """
    n = X.shape[0]
    rng = ensure_rng(seed)
    v = rng.normal(size=X.shape[1])
    norm = np.linalg.norm(v)
    if norm == 0 or X.shape[1] == 0:
        return 1.0
    v /= norm
    sigma = 1.0
    for _ in range(iterations):
        u = sparse.matmul(X, v)
        v = sparse.rmatmul(X, u)
        norm = np.linalg.norm(v)
        if norm == 0:
            break
        sigma = norm
        v /= norm
    return max(sigma / (4.0 * n), 1e-12)


#: Prepared shards an exact fit keeps between passes.  Shards past the
#: cap are re-read on every pass, so a fit holds at most
#: ``RESIDENT_SHARDS + 1`` shards however many rows the stream has.
RESIDENT_SHARDS = 8


def _prepare(X, y) -> tuple:
    """One shard as the kernels read it: operand and ±1 labels.

    Both hold only arrays the caller owns
    (:func:`repro.ml.sparse.resident`), so nothing borrowed from the
    source is read after the source moves on to the next shard.
    """
    operand = sparse.resident(sparse.encode_features(X))
    return operand, np.where(np.asarray(y) > 0, 1.0, -1.0)


class _ShardPasses:
    """Exact FISTA's two data sweeps over a stream's shards.

    The first pass reads and prepares every shard and keeps the first
    :data:`RESIDENT_SHARDS` of them; every later pass reuses those and
    re-reads the rest, in stream order.  A stream within the cap is
    joined and encoded once per fit, not once per pass.  Each sweep
    folds the per-shard partials into zeros in stream order, so which
    shards are resident never changes a coefficient bit.
    """

    __slots__ = ("stream", "resident", "_read")

    def __init__(self, stream):
        self.stream = stream
        self.resident: list[tuple] = []
        self._read = False

    def _shards(self):
        """Every prepared shard, in stream order: one pass."""
        if not self._read:
            self._read = True
            for _, X, y in self.stream.iter_shards():
                shard = _prepare(X, y)
                if len(self.resident) < RESIDENT_SHARDS:
                    self.resident.append(shard)
                yield shard
            return
        yield from self.resident
        rest = range(len(self.resident), self.stream.n_shards)
        if rest:
            for _, X, y in self.stream.iter_shards(rest):
                yield _prepare(X, y)

    def resident_bytes(self) -> int:
        """Bytes of the prepared shards kept between passes."""
        return sum(
            operand.nbytes + signed.nbytes for operand, signed in self.resident
        )

    def power_step(self, v: np.ndarray) -> np.ndarray:
        """``Σ_s X_sᵀ (X_s v)`` accumulated over one shard pass."""
        acc = np.zeros(v.shape[0])
        for encoded, _ in self._shards():
            acc += sparse.rmatmul(encoded, sparse.matmul(encoded, v))
            # Drop the shard before the next read: one past the cap is
            # not resident and would otherwise stay alive beside it.
            del encoded
        return acc

    def gradient(
        self, z_w: np.ndarray, z_b: float, n: int, fit_intercept: bool
    ) -> tuple[np.ndarray, float]:
        """The exact full-batch logistic gradient at ``(z_w, z_b)``."""
        grad_w = np.zeros(z_w.shape[0])
        grad_b = 0.0
        for encoded, signed in self._shards():
            margin = signed * (sparse.matmul(encoded, z_w) + z_b)
            probs = _sigmoid(-margin)
            residual = -(signed * probs) / n
            grad_w += sparse.rmatmul(encoded, residual)
            if fit_intercept:
                grad_b += residual.sum()
            del encoded, signed  # as in power_step
        return grad_w, grad_b


def _power_lipschitz(
    power_step, n: int, width: int, seed: int = 0, iterations: int = 30
) -> float:
    """:func:`_lipschitz_bound` driven through a pass runner.

    ``X.T @ (X @ v)`` decomposes over row blocks as
    ``Σ_s X_s.T @ (X_s @ v)``, so each power iteration is one
    ``power_step`` over the shards with only width-sized state held
    between steps.  With a single shard the arithmetic matches
    :func:`_lipschitz_bound` exactly.
    """
    rng = ensure_rng(seed)
    v = rng.normal(size=width)
    norm = np.linalg.norm(v)
    if norm == 0 or width == 0:
        return 1.0
    v /= norm
    sigma = 1.0
    for _ in range(iterations):
        v = power_step(v)
        norm = np.linalg.norm(v)
        if norm == 0:
            break
        sigma = norm
        v /= norm
    return max(sigma / (4.0 * n), 1e-12)


class L1LogisticRegression(Estimator):
    """Binary logistic regression with an L1 penalty.

    Parameters
    ----------
    lam:
        L1 penalty strength (glmnet's lambda).
    max_iter:
        FISTA iteration cap (glmnet's ``maxit``).
    tol:
        Relative-change convergence threshold (glmnet's ``thresh``).
    fit_intercept:
        Whether to learn an unpenalised bias term.
    """

    _param_names = ("lam", "max_iter", "tol", "fit_intercept")

    def __init__(
        self,
        lam: float = 1e-3,
        max_iter: int = 1000,
        tol: float = 1e-5,
        fit_intercept: bool = True,
    ):
        self.lam = lam
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept

    def fit(
        self,
        X: CategoricalMatrix,
        y: np.ndarray,
        warm_start: tuple[np.ndarray, float] | None = None,
    ) -> "L1LogisticRegression":
        y = check_X_y(X, y)
        return self.fit_stream(MatrixSource(X, y), warm_start=warm_start)

    def fit_stream(
        self,
        stream,
        warm_start: tuple[np.ndarray, float] | None = None,
    ) -> "L1LogisticRegression":
        """Fit with exact FISTA, visiting the data as bounded shards.

        ``stream`` is any :class:`repro.data.FeatureSource` (the exact
        attributes used: ``n_rows``, ``n_shards``, ``onehot_width``,
        ``n_features`` and ``iter_shards``, each shard's ``X`` gathered
        or factorized).  Each FISTA iteration makes one pass over the
        shards, accumulating the full-batch gradient.  The first
        :data:`RESIDENT_SHARDS` shards are prepared once and stay
        resident for every later pass; the rest are re-read per pass,
        so peak memory is bounded by ``RESIDENT_SHARDS + 1`` shards
        regardless of ``n_rows``.  The iterates are the full-batch ones
        — this is out-of-core execution, not an approximate optimiser —
        and with a single shard the arithmetic is bit-identical to
        :meth:`fit`.

        When a run is traced, the innermost open span (the streaming
        trainer's ``fit``) is annotated once with ``resident_shards``
        and ``resident_bytes``.
        """
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        self._reset()  # a fresh fit owes nothing to earlier sessions
        n = int(stream.n_rows)
        if n == 0:
            raise ValueError("cannot fit on zero examples")
        width = int(stream.onehot_width)
        if warm_start is not None:
            w = warm_start[0].copy()
            b = float(warm_start[1])
        else:
            w = np.zeros(width)
            b = 0.0
        runner = _ShardPasses(stream)
        L = _power_lipschitz(runner.power_step, n, width) + (
            0.25 if self.fit_intercept else 0.0
        )
        step = 1.0 / L
        z_w, z_b, t_acc = w.copy(), b, 1.0
        self.n_iter_ = 0
        for iteration in range(self.max_iter):
            grad_w, grad_b = runner.gradient(
                z_w, z_b, n, self.fit_intercept
            )
            w_new = _soft_threshold(z_w - step * grad_w, step * self.lam)
            b_new = z_b - step * grad_b
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
            momentum = (t_acc - 1.0) / t_new
            z_w = w_new + momentum * (w_new - w)
            z_b = b_new + momentum * (b_new - b)
            delta = np.abs(w_new - w).max() if width else abs(b_new - b)
            w, b, t_acc = w_new, b_new, t_new
            self.n_iter_ = iteration + 1
            if delta < self.tol:
                break
        self.coef_ = w
        self.intercept_ = b
        self.n_features_ = int(stream.n_features)
        span = tracer().current()
        if span is not None:
            span.annotate(
                resident_shards=len(runner.resident),
                resident_bytes=runner.resident_bytes(),
            )
        return self

    def _reset(self) -> None:
        """Drop learned state so a new training session starts fresh.

        Shared by ``fit``/``fit_stream`` and by
        :class:`repro.streaming.StreamingTrainer`, whose incremental
        mode drives :meth:`partial_fit` directly and must not silently
        warm-start from an earlier session.
        """
        for attribute in (
            "coef_", "intercept_", "n_features_", "n_iter_", "_momentum"
        ):
            if hasattr(self, attribute):
                delattr(self, attribute)

    def lipschitz_bound(self, X: CategoricalMatrix) -> float:
        """The FISTA step-size bound for one data block.

        Costs ~30 power-iteration passes over ``X``; it depends only on
        the data, so callers that revisit the same shard across epochs
        (:class:`repro.streaming.StreamingTrainer`'s incremental mode)
        compute it once per shard and pass it to :meth:`partial_fit`.
        """
        encoded = sparse.encode_features(X)
        return _lipschitz_bound(encoded) + (0.25 if self.fit_intercept else 0.0)

    def partial_fit(
        self,
        X: CategoricalMatrix,
        y: np.ndarray,
        n_iter: int = 1,
        restart: bool = False,
        lipschitz: float | None = None,
    ) -> "L1LogisticRegression":
        """Advance FISTA by ``n_iter`` iterations on one shard's data.

        Unlike :meth:`fit_stream` — which computes exact full-batch
        gradients by streaming every shard each iteration — this is the
        cheap incremental scheme: each call optimises against the given
        shard only, continuing from the current coefficients.  The first
        call initialises from zeros.  ``restart=True`` resets the FISTA
        momentum, the standard restart that keeps shard epochs stable
        when consecutive shards pull the iterate in different
        directions (:class:`repro.streaming.StreamingTrainer` restarts
        at every epoch boundary).

        ``lipschitz`` takes a precomputed :meth:`lipschitz_bound` for
        this shard; omitted, it is re-estimated here (~30 extra passes
        over the shard — worth caching when shards are revisited).
        """
        y = check_X_y(X, y)
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {n_iter}")
        encoded = sparse.encode_features(X)
        n, d = encoded.shape
        if hasattr(self, "coef_"):
            if self.coef_.shape[0] != d:
                raise ValueError(
                    f"shard encodes to width {d}, model has width "
                    f"{self.coef_.shape[0]}; shards must share closed domains"
                )
            w = self.coef_
            b = self.intercept_
            z_w, z_b, t_acc = getattr(self, "_momentum", (w.copy(), b, 1.0))
        else:
            w = np.zeros(d)
            b = 0.0
            z_w, z_b, t_acc = w.copy(), b, 1.0
            self.n_iter_ = 0
        if restart:
            z_w, z_b, t_acc = w.copy(), b, 1.0
        signed = np.where(y > 0, 1.0, -1.0)
        if lipschitz is None:
            lipschitz = _lipschitz_bound(encoded) + (
                0.25 if self.fit_intercept else 0.0
            )
        elif lipschitz <= 0:
            raise ValueError(f"lipschitz must be > 0, got {lipschitz}")
        step = 1.0 / lipschitz
        for _ in range(n_iter):
            margin = signed * (sparse.matmul(encoded, z_w) + z_b)
            probs = _sigmoid(-margin)
            residual = -(signed * probs) / n
            grad_w = sparse.rmatmul(encoded, residual)
            grad_b = residual.sum() if self.fit_intercept else 0.0
            w_new = _soft_threshold(z_w - step * grad_w, step * self.lam)
            b_new = z_b - step * grad_b
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
            momentum = (t_acc - 1.0) / t_new
            z_w = w_new + momentum * (w_new - w)
            z_b = b_new + momentum * (b_new - b)
            w, b, t_acc = w_new, b_new, t_new
            self.n_iter_ += 1
        self.coef_ = w
        self.intercept_ = b
        self._momentum = (z_w, z_b, t_acc)
        self.n_features_ = X.n_features
        return self

    def loss(self, X: CategoricalMatrix, y: np.ndarray) -> float:
        """The penalised objective on ``(X, y)`` at the fitted weights.

        ``(1/n) Σ log(1 + exp(-s_i f(x_i))) + lam ||w||_1`` with the
        bias unpenalised — the quantity the streaming-equivalence tests
        compare across shard layouts.
        """
        check_fitted(self, "coef_")
        y = np.asarray(y)
        margins = np.where(y > 0, 1.0, -1.0) * self.decision_function(X)
        data_loss = float(np.mean(np.logaddexp(0.0, -margins)))
        return data_loss + self.lam * float(np.abs(self.coef_).sum())

    def decision_function(self, X: CategoricalMatrix) -> np.ndarray:
        """Linear scores ``Xw + b``."""
        check_fitted(self, "coef_")
        if X.n_features != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.n_features}"
            )
        encoded = sparse.encode_features(X)
        return sparse.matmul(encoded, self.coef_) + self.intercept_

    def predict_proba(self, X: CategoricalMatrix) -> np.ndarray:
        """Probabilities ``[P(y=0), P(y=1)]``."""
        p1 = _sigmoid(self.decision_function(X))
        return np.stack([1.0 - p1, p1], axis=1)

    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        return (self.decision_function(X) >= 0).astype(np.int64)

    @property
    def n_nonzero_(self) -> int:
        """Number of non-zero coefficients in the fitted model."""
        check_fitted(self, "coef_")
        return int(np.count_nonzero(self.coef_))


class LogisticRegressionPath:
    """glmnet-style lambda path for :class:`L1LogisticRegression`.

    Parameters
    ----------
    nlambda:
        Number of penalties on the geometric path (paper sets 100).
    lambda_min_ratio:
        ``lambda_min = ratio * lambda_max``.
    max_iter, tol:
        Passed through to each path fit (paper: ``maxit=10000``,
        ``thresh=0.001``).
    """

    def __init__(
        self,
        nlambda: int = 100,
        lambda_min_ratio: float = 1e-3,
        max_iter: int = 10_000,
        tol: float = 1e-3,
    ):
        if nlambda < 1:
            raise ValueError(f"nlambda must be >= 1, got {nlambda}")
        self.nlambda = nlambda
        self.lambda_min_ratio = lambda_min_ratio
        self.max_iter = max_iter
        self.tol = tol

    def lambda_max(self, X: CategoricalMatrix, y: np.ndarray) -> float:
        """Smallest penalty at which the all-zero solution is optimal."""
        y = np.asarray(y, dtype=np.float64)
        encoded = sparse.encode_features(X)
        n = encoded.shape[0]
        centred = y - y.mean()
        if encoded.shape[1] == 0:
            return 1.0
        return float(np.abs(sparse.rmatmul(encoded, centred)).max() / n) or 1.0

    def fit(
        self, X: CategoricalMatrix, y: np.ndarray
    ) -> list[L1LogisticRegression]:
        """Fit the full path, warm-starting along decreasing lambda."""
        lam_max = self.lambda_max(X, y)
        lams = np.geomspace(
            lam_max, lam_max * self.lambda_min_ratio, num=self.nlambda
        )
        models: list[L1LogisticRegression] = []
        warm: tuple[np.ndarray, float] | None = None
        for lam in lams:
            model = L1LogisticRegression(
                lam=float(lam),
                max_iter=self.max_iter,
                tol=self.tol,
            )
            model.fit(X, y, warm_start=warm)
            warm = (model.coef_, model.intercept_)
            models.append(model)
        return models

    def fit_best(
        self,
        X_train: CategoricalMatrix,
        y_train: np.ndarray,
        X_val: CategoricalMatrix,
        y_val: np.ndarray,
    ) -> L1LogisticRegression:
        """Fit the path on train, return the model with best validation accuracy."""
        models = self.fit(X_train, y_train)
        scores = [m.score(X_val, y_val) for m in models]
        return models[int(np.argmax(scores))]
