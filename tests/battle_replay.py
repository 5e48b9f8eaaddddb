"""The replay record of a battle frame, which the replay and feature
tests compare frame by frame."""
from __future__ import annotations


def frame_record(state) -> dict:
    """One replay record: everything needed to redraw the frame. A unit's
    uid is its row, and its target an index into the other team."""
    n = state.n
    rows = [{
        "uid": k,
        "spec": spec.name,
        "pos": [round(x, 6), round(y, 6)],
        "health": round(health, 6),
        "target": None if t < 0 else t - n if k < n else t,
    } for k, (spec, (x, y), health, t) in enumerate(
        zip(state.specs, state.pos.tolist(), state.health.tolist(), state.target.tolist()))]
    return {"frame": state.frame, "ours": rows[:n], "theirs": rows[n:]}
