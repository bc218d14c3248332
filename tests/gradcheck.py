"""The suite's one central-difference gradient checker.

`fd_grad` is the difference loop; `fd_report` compares it with the analytic
backward of a set of parameter tensors; `grad_check` runs `fd_report` on a
small seeded instance of each learnable component (criterion 1).
"""

import numpy as np

import svkit.ecapa as ecapa_mod
from svkit import scoring
from svkit.aggregator import aggregate_graph
from svkit.autodiff import Tensor
from svkit.ecapa import EcapaConfig
from svkit.rng import child_rng
from svkit.training import AamConfig, aam_loss


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x (x is perturbed in place and restored)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        g.reshape(-1)[i] = (hi - lo) / (2 * eps)
    return g


def fd_report(make_loss, params: dict, epsilon: float) -> dict:
    """Max relative error per tensor: analytic backward vs central differences.

    Tensors whose true gradient is (near) zero are measured against the
    component's overall gradient scale, not against finite-difference noise.
    """
    for p in params.values():
        p.grad = None
    make_loss().backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for k, p in params.items()}
    # the difference loop's forwards need no graph: freeze the parameters, then restore their flags
    flags = [p.requires_grad for p in params.values()]
    try:
        for p in params.values():
            p.requires_grad = False
        numeric = {name: fd_grad(lambda _: make_loss().item(), p.data, epsilon) for name, p in params.items()}
    finally:
        for p, flag in zip(params.values(), flags):
            p.requires_grad = flag
    scale = max(
        max((np.max(np.abs(a)) for a in analytic.values()), default=0.0),
        max((np.max(np.abs(f)) for f in numeric.values()), default=0.0),
        1e-12,
    )
    report = {}
    for name, a in analytic.items():
        f = numeric[name]
        denom = max(np.max(np.abs(a)), np.max(np.abs(f)), 1e-5 * scale)
        report[name] = float(np.max(np.abs(a - f)) / denom)
    return report


def grad_check(component_id: str, trial_count: int = 1, epsilon: float = 1e-5, seed: int = 0) -> dict:
    """Central-difference check of every parameter group of one component.

    Returns {tensor_name: max relative error} merged over trials (worst case).
    """
    merged: dict = {}
    for trial in range(trial_count):
        rng = child_rng(seed, f"grad-check:{component_id}:{trial}")
        make_loss, params = BUILDERS[component_id](rng)
        for name, err in fd_report(make_loss, params, epsilon).items():
            merged[name] = max(err, merged.get(name, 0.0))
    return merged


def _aggregator(rng):
    n_layers, t, d = 5, 4, 3
    stack = rng.standard_normal((n_layers, t, d))
    probe = rng.standard_normal((t, d))
    logits = Tensor(rng.standard_normal(n_layers) * 0.5, requires_grad=True)

    def make_loss():
        return (aggregate_graph(stack, logits) * probe).sum()

    return make_loss, {"logits": logits}


def _ecapa(rng):
    cfg = EcapaConfig(
        in_dim=6, channels=16, res2_scale=8, dilations=(2, 3, 4),
        se_bottleneck=8, attention_channels=8, embed_dim=8,
    )
    params = ecapa_mod.init_params(cfg, seed=int(rng.integers(1 << 31)))
    feats = rng.standard_normal((5, cfg.in_dim))
    probe = rng.standard_normal(cfg.embed_dim)

    def make_loss():
        return (ecapa_mod.forward(feats, params, cfg) * probe).sum()

    return make_loss, params


def _aam(rng):
    b, e, n = 4, 6, 5
    cfg = AamConfig()
    emb = Tensor(rng.standard_normal((b, e)), requires_grad=True)
    anchors = Tensor(rng.standard_normal((n, e)), requires_grad=True)
    labels = rng.integers(0, n, size=b)

    def make_loss():  # the batch's mean of one-utterance losses, as training descends it
        return sum(aam_loss(emb[i], label, anchors, cfg) for i, label in enumerate(labels)) * (1 / b)

    return make_loss, {"embeddings": emb, "anchors": anchors}


def _calibration(rng):
    n = 32
    x = np.column_stack([rng.standard_normal(n), rng.standard_normal(n)])
    y = (rng.random(n) < 0.5).astype(np.float64)
    theta = Tensor(rng.standard_normal(3) * 0.5, requires_grad=True)

    def make_loss():
        # the objective and gradient that scoring.fit_calibration descends, as one node
        value, grad = scoring._bce_value_grad(theta.data, x, y)
        return Tensor._op(np.asarray(value), (theta,), lambda g: (g * grad,))

    return make_loss, {"theta": theta}


BUILDERS = {"aggregator": _aggregator, "ecapa": _ecapa, "aam": _aam, "calibration": _calibration}
