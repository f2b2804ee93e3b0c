"""Small lookups shared by test modules."""

from relattn.tensor import Tensor, mul, tsum


def metric_value(rows: list, metric: str, k: int) -> float | None:
    """The value of the aggregate metric row for metric@k in
    `evaluate`'s rows, or None when there is none."""
    for _split, _task, name, kk, _pred, value in rows:
        if name == metric and kk == k:
            return value
    return None


def parameter(registry, name: str):
    """The registered parameter called ``name``."""
    return next(p for p in registry.parameters() if p.name == name)


def backward_from(out, g) -> None:
    """Backpropagate the upstream gradient ``g`` (an array of out's shape)
    through ``out``: the gradient of sum(out * g) with respect to out is
    g, bit for bit."""
    tsum(mul(out, Tensor(g))).backward()
