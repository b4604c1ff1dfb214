import pytest

from adamerge.report import merge_map_state
from adamerge.runtime import LayerRecord, RunConfig, RunTrace


def hand_trace(track_maps):
    """Five tokens, two layers.

    Layer 0: A = tokens 0-2, B = tokens 3-4; A0 and A2 merge into B1, so
    positions 0, 1, 2 afterwards hold original tokens 1, 3, 4.
    Layer 1: A = positions 0-1 (tokens 1, 3), B = position 2 (token 4);
    A1 (token 3) merges into B0, so tokens 1 and 4 survive.
    """
    layers = [
        LayerRecord(layer=0, n_before=5, n_after=3, r=2, sbar=0.0, z=0.0,
                    edges=[(0, 1, 0.9), (2, 1, 0.8)],
                    rep_salience=[0.1, 0.5, 1.0] if track_maps else None),
        LayerRecord(layer=1, n_before=3, n_after=2, r=1, sbar=0.0, z=0.0,
                    edges=[(1, 0, 0.7)],
                    rep_salience=[0.0, 1.0] if track_maps else None),
    ]
    return RunTrace(config=RunConfig(schedule=2, track_maps=track_maps),
                    layers=layers)


@pytest.mark.parametrize("track_maps", [True, False])
def test_merge_map_replays_the_edges(track_maps):
    merged_at, sal_layers = merge_map_state(hand_trace(track_maps))
    assert merged_at == {0: 0, 2: 0, 3: 1}
    if track_maps:
        assert sal_layers == [{1: 0.1, 3: 0.5, 4: 1.0}, {1: 0.0, 4: 1.0}]
    else:
        assert sal_layers == [{}, {}]


def test_merge_free_trace_keeps_every_token():
    layers = [LayerRecord(layer=l, n_before=4, n_after=4, r=0, sbar=0.0,
                          z=0.0) for l in range(2)]
    assert merge_map_state(RunTrace(config=RunConfig(schedule=None),
                                    layers=layers)) == \
        ({}, [{}, {}])
