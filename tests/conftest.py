import os
import sys

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run (derandomized, no
# example database) and carry no per-example deadline, which a loaded
# 2-core host would miss.
settings.register_profile("adamerge", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("adamerge")


@pytest.fixture
def forward_checking_cls(monkeypatch):
    """`runtime.forward_model`, also asserting the CLS invariant without
    the record digests: block 0 reads the input CLS token, and block l+1
    the CLS row that block l wrote, byte for byte."""
    import adamerge.runtime as rt
    real, rows = rt.forward_block, []

    def recording(tokens, *args, **kwargs):
        out = real(tokens, *args, **kwargs)
        rows.append((tokens[0].tobytes(), out[0].tobytes()))
        return out

    def forward(seq, weights, cfg):
        rows.clear()
        result = rt.forward_model(seq, weights, cfg)
        assert len(rows) == weights.dims.layers
        assert rows[0][0] == seq.cls.tobytes(), "block 0 reads another CLS"
        for l, ((_, wrote), (read, _)) in enumerate(zip(rows, rows[1:])):
            assert read == wrote, f"block {l + 1} reads another CLS than {l} wrote"
        return result

    monkeypatch.setattr(rt, "forward_block", recording)
    return forward


class SalienceCalls(list):
    """Each `salience_of` call that `runtime` makes, in order, as (patch
    tokens, total of their raw salience). The raw salience is the column
    sums of a row-softmaxed affinity, so the total is the token count."""

    def check(self, trace):
        """One call per layer, on the layer's patch tokens, exactly when
        the run reads salience; each raw total within 1e-5·n of n."""
        cfg = trace.config
        reads = trace.merging and (cfg.salience or cfg.track_maps)
        assert [n for n, _ in self] == \
            ([rec.n_before for rec in trace.layers] if reads else [])
        for n, total in self:
            assert abs(total - n) <= 1e-5 * n


@pytest.fixture
def salience_calls(monkeypatch):
    """A SalienceCalls that records the runtime's salience calls."""
    import adamerge.runtime as rt
    from adamerge.salience import compute_salience
    real, calls = rt.salience_of, SalienceCalls()

    def recording(x):
        raw = compute_salience(x) if x.shape[0] else np.zeros(0)
        calls.append((x.shape[0], float(raw.sum())))
        return real(x)

    monkeypatch.setattr(rt, "salience_of", recording)
    return calls
