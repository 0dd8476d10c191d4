import json

import pytest

# The shared oracles assert too; rewriting them keeps those checks under
# ``python -O``, which strips the asserts of modules pytest does not rewrite.
pytest.register_assert_rewrite("helpers")

from dualfix import build_poset


@pytest.fixture
def two_chain():
    return build_poset(["p", "q"], [("p", "q")])


@pytest.fixture
def two_antichain():
    return build_poset(["a", "b"], [])


@pytest.fixture
def three_chain():
    return build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])


@pytest.fixture
def diamond_m3():
    return build_poset(
        ["0", "1", "a", "b", "c"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


@pytest.fixture
def bowtie():
    return build_poset(
        ["l1", "l2", "t1", "t2"],
        [("l1", "t1"), ("l1", "t2"), ("l2", "t1"), ("l2", "t2")],
    )


@pytest.fixture
def write_json(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write
