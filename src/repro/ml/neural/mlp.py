"""Multi-layer perceptron classifier in plain numpy.

Architecture per the paper's Section 3.2: hidden layers (256, 64) with
ReLU activations, softmax output, cross-entropy loss, L2 weight penalty,
Adam optimizer.  Hidden sizes, epochs and batch size are configurable so
the scaled experiment profiles can trade fidelity for runtime.

The input layer runs on the implicit one-hot view: the forward product
gathers first-layer weight rows by code and the backward weight
gradient scatter-adds each batch row's delta into the one-hot columns
it activates (:mod:`repro.ml.sparse`), so neither pass touches the
``sum(n_levels)``-wide zero structure.  A factorized shard is gathered
first: every minibatch step would otherwise pay each blocked
dimension's whole ``|D|``-row block.  Label one-hot targets are built
per minibatch rather than materialised for the full training set.

Training is resumable: :meth:`MLPClassifier.partial_fit` runs one
shuffled minibatch epoch over whatever rows it is handed, carrying the
weights, Adam moments and RNG stream across calls.  ``fit`` is exactly
``epochs`` such calls on the full matrix, so an out-of-core trainer
(:class:`repro.streaming.StreamingTrainer`) that feeds the same rows as
one shard reproduces ``fit`` bit for bit, and multi-shard training is
plain minibatch SGD whose "batches per epoch" happen to arrive grouped
by shard.
"""

from __future__ import annotations

import numpy as np

from repro.ml import sparse
from repro.ml.base import Estimator, check_fitted, check_X_y
from repro.ml.encoding import CategoricalMatrix
from repro.ml.neural.adam import AdamOptimizer
from repro.rng import ensure_rng


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class MLPClassifier(Estimator):
    """Feed-forward neural network classifier.

    Parameters
    ----------
    hidden_sizes:
        Hidden layer widths; the paper uses ``(256, 64)``.
    l2:
        L2 penalty coefficient on all weight matrices (not biases).
    learning_rate:
        Adam step size.
    epochs:
        Full passes over the training set.
    batch_size:
        Minibatch size.
    random_state:
        Seed for weight initialisation and batch shuffling.
    """

    _param_names = (
        "hidden_sizes",
        "l2",
        "learning_rate",
        "epochs",
        "batch_size",
        "random_state",
    )

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (256, 64),
        l2: float = 1e-4,
        learning_rate: float = 1e-3,
        epochs: int = 30,
        batch_size: int = 128,
        random_state: int | None = 0,
    ):
        self.hidden_sizes = tuple(hidden_sizes)
        self.l2 = l2
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.random_state = random_state

    def _validate_params(self) -> None:
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be positive, got {self.hidden_sizes}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def _reset(self) -> None:
        """Drop learned state so ``fit`` starts fresh on a reused object."""
        for attribute in ("weights_", "biases_", "loss_curve_", "n_classes_",
                          "n_features_"):
            if hasattr(self, attribute):
                delattr(self, attribute)
        self._rng = None
        self._optimizer = None

    def _initialize(self, X: CategoricalMatrix, n_classes: int) -> None:
        """Allocate weights, optimiser and RNG for the first data seen."""
        self._rng = ensure_rng(self.random_state)
        d = X.onehot_width
        self.n_classes_ = int(n_classes)
        self.n_features_ = X.n_features
        sizes = [d, *self.hidden_sizes, self.n_classes_]
        # He initialisation suits ReLU layers.
        self.weights_ = [
            self._rng.normal(
                0.0, np.sqrt(2.0 / max(sizes[i], 1)), (sizes[i], sizes[i + 1])
            )
            for i in range(len(sizes) - 1)
        ]
        self.biases_ = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
        self._optimizer = AdamOptimizer(learning_rate=self.learning_rate)
        self.loss_curve_: list[float] = []

    def fit(self, X: CategoricalMatrix, y: np.ndarray) -> "MLPClassifier":
        y = check_X_y(X, y)
        self._validate_params()
        self._reset()
        self._initialize(X, max(int(y.max()) + 1, 2))
        # Encode once for all epochs; each epoch is the same pass that
        # partial_fit runs, so single-shard streaming reproduces fit.
        encoded = sparse.encode_features(sparse.gathered(X))
        for _ in range(self.epochs):
            self._run_epoch(encoded, y)
        return self

    def partial_fit(
        self,
        X: CategoricalMatrix,
        y: np.ndarray,
        n_classes: int | None = None,
    ) -> "MLPClassifier":
        """One shuffled minibatch epoch over ``(X, y)``, resuming state.

        The first call initialises weights and the Adam moments;
        subsequent calls continue from where the last left off, sharing
        one RNG stream for batch shuffling.  Out-of-core training calls
        this once per shard per epoch; the shards' closed domains
        guarantee every shard encodes to the same width.

        Parameters
        ----------
        n_classes:
            Total number of classes.  Required on the first call when
            the first shard might not contain every class (e.g. sorted
            labels); defaults to what ``y`` shows.
        """
        y = check_X_y(X, y)
        self._validate_params()
        if not hasattr(self, "weights_"):
            if n_classes is None:
                n_classes = max(int(y.max()) + 1, 2)
            elif n_classes < 2:
                raise ValueError(f"n_classes must be >= 2, got {n_classes}")
            self._initialize(X, int(n_classes))
        elif X.n_features != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.n_features}"
            )
        elif n_classes is not None and int(n_classes) != self.n_classes_:
            raise ValueError(
                f"model was initialised with {self.n_classes_} classes, "
                f"got n_classes={n_classes}"
            )
        if int(y.max()) >= self.n_classes_:
            raise ValueError(
                f"label {int(y.max())} out of range for {self.n_classes_} classes"
            )
        self._run_epoch(sparse.encode_features(sparse.gathered(X)), y)
        return self

    def _run_epoch(self, encoded, y: np.ndarray) -> None:
        """One shuffled minibatch pass over an already-encoded operand."""
        n = encoded.shape[0]
        order = self._rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, self.batch_size):
            batch = order[start : start + self.batch_size]
            # Label one-hot targets are tiny per batch; building them
            # lazily avoids pinning an (n, n_classes) matrix.
            targets = np.zeros((batch.size, self.n_classes_))
            targets[np.arange(batch.size), y[batch]] = 1.0
            loss = self._step(
                sparse.take_rows(encoded, batch), targets, self._optimizer
            )
            epoch_loss += loss * batch.size
        self.loss_curve_.append(epoch_loss / n)

    def _forward(self, inputs) -> tuple[list, np.ndarray]:
        # inputs is an implicit OneHotMatrix view (or the dense oracle);
        # only the first layer's product dispatches, hidden layers are
        # dense.
        activations = [inputs]
        for i, (W, b) in enumerate(zip(self.weights_, self.biases_)):
            z = sparse.matmul(activations[-1], W) + b
            is_output = i == len(self.weights_) - 1
            activations.append(_softmax(z) if is_output else _relu(z))
        return activations[:-1], activations[-1]

    def _step(
        self, inputs, targets: np.ndarray, optimizer: AdamOptimizer
    ) -> float:
        hidden, probs = self._forward(inputs)
        m = inputs.shape[0]
        eps = 1e-12
        data_loss = -np.mean(np.sum(targets * np.log(probs + eps), axis=1))
        reg_loss = 0.5 * self.l2 * sum(float(np.sum(W * W)) for W in self.weights_)
        grads_w: list[np.ndarray] = [None] * len(self.weights_)  # type: ignore[list-item]
        grads_b: list[np.ndarray] = [None] * len(self.biases_)  # type: ignore[list-item]
        delta = (probs - targets) / m
        for i in range(len(self.weights_) - 1, -1, -1):
            # The input layer's gradient (i == 0) scatter-adds delta rows
            # into the one-hot columns.
            grads_w[i] = sparse.rmatmul(hidden[i], delta) + self.l2 * self.weights_[i]
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights_[i].T) * (hidden[i] > 0)
        optimizer.step(self.weights_ + self.biases_, grads_w + grads_b)
        return float(data_loss + reg_loss)

    def predict_proba(self, X: CategoricalMatrix) -> np.ndarray:
        """Softmax class probabilities."""
        check_fitted(self, "weights_")
        if X.n_features != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.n_features}"
            )
        _, probs = self._forward(sparse.encode_features(sparse.gathered(X)))
        return probs

    def predict(self, X: CategoricalMatrix) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)
