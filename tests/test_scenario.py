"""Scenario-file loader proofs.

1. a minimal file yields the documented defaults
2. every optional key lands in the right field, including threshold
   spellings (null, .inf, "inf", "none") meaning unconstrained
3. scripted coordinates and requests produce the exact network/workload
4. structural problems raise ScenarioParseError: unreadable files, bad
   YAML, non-mapping documents, unknown keys (top level and per request),
   wrong types
5. unusable values raise ScenarioValueError: too few nodes, nonpositive
   scalars, endpoint and coordinate-count mismatches, a threshold of -inf
6. the seed override wins over the file's seed
"""

import math

import pytest

from qostopo import ScenarioParseError, ScenarioValueError, load_scenario

MINIMAL = """\
nodes: 3
region: [10, 10]
max_power: 100
bandwidth: 50
hop_bound: 3
"""


def write(tmp_path, text, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_file_defaults(tmp_path):
    scn = load_scenario(write(tmp_path, MINIMAL))
    p = scn.params
    assert p.node_count == 3
    assert p.region == (10.0, 10.0)
    assert p.path_loss_exponent == 2.0
    assert p.max_power == 100.0 and p.bandwidth == 50.0
    assert p.request_rate == 1.0 and p.mean_demand == 1.0
    assert p.hop_bound == 3 and p.threshold is None and p.seed == 0
    assert scn.network is None and scn.requests is None and scn.replications is None


def test_all_scalar_keys(tmp_path):
    scn = load_scenario(
        write(
            tmp_path,
            MINIMAL
            + "path_loss_exponent: 3\nrequest_rate: 0.5\nmean_demand: 4\n"
            + "threshold: 12.5\nseed: 99\nreplications: 7\n",
        )
    )
    p = scn.params
    assert p.path_loss_exponent == 3.0
    assert p.request_rate == 0.5 and p.mean_demand == 4.0
    assert p.threshold == 12.5 and p.seed == 99
    assert scn.replications == 7


@pytest.mark.parametrize("spelling", ["null", ".inf", '"inf"', '"none"', '"null"'])
def test_threshold_unconstrained_spellings(tmp_path, spelling):
    scn = load_scenario(write(tmp_path, MINIMAL + f"threshold: {spelling}\n"))
    assert scn.params.threshold is None


def test_threshold_zero_is_a_real_constraint(tmp_path):
    scn = load_scenario(write(tmp_path, MINIMAL + "threshold: 0\n"))
    assert scn.params.threshold == 0.0


def test_scripted_coordinates(tmp_path):
    scn = load_scenario(
        write(tmp_path, MINIMAL + "coordinates: [[0, 0], [1, 0], [2, 0]]\n")
    )
    assert scn.network is not None
    assert scn.network.positions == ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    assert scn.network.max_power == 100.0


def test_scripted_requests(tmp_path):
    scn = load_scenario(
        write(
            tmp_path,
            MINIMAL
            + "requests:\n"
            + "  - {sender: 0, receiver: 2, demand: 2}\n"
            + "  - {sender: 1, receiver: 0, demand: 1.5, hop_bound: 1}\n",
        )
    )
    assert scn.requests is not None and len(scn.requests) == 2
    first, second = scn.requests
    assert (first.sender, first.receiver, first.demand, first.hop_bound) == (0, 2, 2.0, 3)
    assert second.hop_bound == 1


def test_empty_request_list_is_valid(tmp_path):
    scn = load_scenario(write(tmp_path, MINIMAL + "requests: []\n"))
    assert scn.requests == []


def test_parse_errors(tmp_path):
    cases = [
        "nodes: [not, a, number]\n",
        MINIMAL + "bogus_key: 1\n",
        MINIMAL + "threshold: [1, 2]\n",
        MINIMAL + "region: 10\n",
        MINIMAL + "region: [10]\n",
        MINIMAL + "seed: 1.5\n",
        MINIMAL + "nodes: true\n",
        MINIMAL + "requests: {sender: 0}\n",
        MINIMAL + "requests:\n  - {sender: 0, receiver: 1, demand: 1, extra: 2}\n",
        MINIMAL + "requests:\n  - {sender: 0, demand: 1}\n",
        MINIMAL + "coordinates: [[0, 0], [1], [2, 0]]\n",
        "just a string\n",
        "- a\n- list\n",
        "nodes: 3\nregion: [10, 10]\nmax_power: 100\nbandwidth: 50\n",  # no hop_bound
        "{unclosed: [\n",
    ]
    for text in cases:
        with pytest.raises(ScenarioParseError):
            load_scenario(write(tmp_path, text))


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario(tmp_path / "nope.yaml")


def test_value_errors(tmp_path):
    cases = [
        MINIMAL.replace("nodes: 3", "nodes: 1"),
        MINIMAL.replace("region: [10, 10]", "region: [0, 10]"),
        MINIMAL.replace("max_power: 100", "max_power: -5"),
        MINIMAL.replace("bandwidth: 50", "bandwidth: 0"),
        MINIMAL.replace("hop_bound: 3", "hop_bound: 0"),
        MINIMAL + "request_rate: -1\n",
        MINIMAL + "seed: -4\n",
        MINIMAL + "requests:\n  - {sender: 0, receiver: 9, demand: 1}\n",
        MINIMAL + "requests:\n  - {sender: 2, receiver: 2, demand: 1}\n",
        MINIMAL + "requests:\n  - {sender: 0, receiver: 1, demand: 0}\n",
        MINIMAL + "coordinates: [[0, 0], [1, 0]]\n",  # count mismatch
        MINIMAL + "coordinates: [[0, 0], [0, 0], [1, 0]]\n",  # coincident
        MINIMAL + "replications: 0\n",
        MINIMAL + "threshold: -.inf\n",  # only +inf means no threshold
    ]
    for text in cases:
        with pytest.raises(ScenarioValueError):
            load_scenario(write(tmp_path, text))


def test_seed_override(tmp_path):
    path = write(tmp_path, MINIMAL + "seed: 5\n")
    assert load_scenario(path).params.seed == 5
    assert load_scenario(path, seed_override=11).params.seed == 11
    assert load_scenario(path, seed_override=0).params.seed == 0
