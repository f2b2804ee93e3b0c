"""Small lookups shared by test modules."""


def metric_value(rows: list, metric: str, k: int) -> float | None:
    """The value of the aggregate metric row for metric@k in
    `evaluate`'s rows, or None when there is none."""
    for _split, _task, name, kk, _pred, value in rows:
        if name == metric and kk == k:
            return value
    return None
