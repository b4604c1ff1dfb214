import os
import sys

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

    def recording(tokens, block, dims):
        out = real(tokens, block, dims)
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
