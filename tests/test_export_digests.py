"""Exports stay byte for byte what they were before the kind registry.

The digests are the first 16 hex digits of the sha256 of each rendered
export, recorded from the per-kind if-chain implementation that the KINDS
registry in export.py replaced.  Each tuple runs over depths 0-8.
"""

import argparse
import hashlib
from dataclasses import replace

import pytest

from topograph import TREE_KINDS, DomainError, build_export, from_json, render, to_dot, to_json
from topograph.cli import build_parser
from topograph.verify import DEFAULT_A_VALUES

FORMATS = ("json", "csv", "dot")

# (kind, a, format): digests at depths 0..8; a is None for kinds without one.
DIGESTS = {
    ('farey', None, 'json'): (
        "6b81bdb9beadab7c", "53b80a127e85c331", "aaef6ef7a9fed9f7",
        "693fea9aeee10362", "8ac39da808e126bf", "3bcf473ce7847545",
        "52a9d8457c6905b3", "a5a29c60e66f3f0a", "c858676fa9fd35a8"),
    ('farey', None, 'csv'): (
        "7daba66b310592e8", "b1d42793f73981b0", "be44db0c74cec246",
        "6ebdbed92f556c1d", "82bde0e70af4754c", "67e5827361923f12",
        "efab7a1ed77bced0", "1f1ceed4522730a9", "cd1aa3b18db33121"),
    ('farey', None, 'dot'): (
        "c1e6adb1335eb390", "010efc552b336bd3", "b9e87db47918d38c",
        "26b8a998f7397771", "0cc52ba77f89590e", "5127489bf0a8435e",
        "548271e7b1411e38", "f37575b0cd158829", "a97c3f1bb639aad0"),
    ('markov', None, 'json'): (
        "bb40852ea8d9dab5", "a869ce4e884f980e", "6d6c067f3e3e71dc",
        "1758cc91ca471ebc", "8e97950f30b94231", "120f4f82f2d35a01",
        "dc6a6324f6a28ae2", "8bb9b0da502e80a7", "7627dc5163c235e0"),
    ('markov', None, 'csv'): (
        "9708ff764eacece8", "12702710292351a8", "b3c149cc668e9542",
        "9a0af0a23692e304", "53703791bb8705f3", "e4a940f3ef9f45c3",
        "6948cf314c1e24dd", "d30bd1c951e4ecb8", "340872637dd5cb64"),
    ('markov', None, 'dot'): (
        "4a151c20ca6890aa", "8bbf1e9f2119cdc9", "b11f086817df4907",
        "9c7c6b356423d97a", "be100afc24248521", "78ce5fccbeabbaec",
        "29622c58c49aa8a6", "3269c13bbaa31ebe", "7a160520b32e214a"),
    ('triple', None, 'json'): (
        "faa4821c13ca5ca8", "1a600eb4de402eb5", "8d89f31f2bc62a6b",
        "4e16780f36626ff9", "3f944681f906b313", "a721ea3fa4c1d3b1",
        "2e9ff17b66846a26", "963eda7d98c1f2e5", "e56bd0bda4a9e8a4"),
    ('triple', None, 'csv'): (
        "36e53876ef3a6623", "14b5e29cbca94c67", "72776e7b6e5a0157",
        "dfc113d5c0d4aa66", "b882eea4e539015e", "7807e8dab790c7da",
        "2797d50848e13101", "5bd94757a5402516", "ebf5d8081386856b"),
    ('triple', None, 'dot'): (
        "0fc69d41faef2309", "8c92d0550cde976b", "dc9d9f2b93a67512",
        "c89df235cb90f5a6", "c1337abd15ba41b8", "6e9c57b80ffde804",
        "883581b4ebf3b5ec", "032eb358935b512d", "05ad7f9035b95887"),
    ('cohn', -2, 'json'): (
        "64cbd2ad8bd120cf", "b96587145d51f0b3", "92020918f2e3e312",
        "df4b98de49052630", "630f628f9072fe22", "bdd212b7f04e46d4",
        "594a389f39afb6e6", "35d5e1984d123c08", "75679761bd6242b4"),
    ('cohn', -2, 'csv'): (
        "a63d9adf8ae911b5", "597942ca3c9e0ed8", "0ef1ca1743ac20c1",
        "dfa91e54ad05b155", "7c7031388a4e6aac", "2ad1439465187dad",
        "46cfa3f2ed075f2b", "b9caf0ae10448721", "6c09993051cf4e2a"),
    ('cohn', -2, 'dot'): (
        "3296b40d3e9a1239", "ad9d527ebe307ce2", "f5b0f7ee3bdca2e5",
        "e3d921c586813ae6", "a03536011a2602ee", "de1b0699876e404e",
        "3133d6cfef0cb1b0", "46372173597d7bdb", "1d5f2a7e675d4c80"),
    ('cohn', -1, 'json'): (
        "d63f5bdca769edef", "1e7ddd5181f05216", "21f40c74214feb83",
        "cf077ff898bc5a92", "b581207a7ae3cb2f", "8ed1b67e6b0144f8",
        "55a0dd16cc139e84", "6c35d6ae971a883f", "146fab6f8f0610dc"),
    ('cohn', -1, 'csv'): (
        "9b0b4c7291139a32", "7081ee61642aa59e", "ca18b2a24ff5811d",
        "3c47244a86637c62", "d5826a9f180a2450", "49b073a90199172d",
        "e96ae5209eae5fa2", "4b89c8977ad96c0d", "619bf48a2c714b5c"),
    ('cohn', -1, 'dot'): (
        "bb8d90d4857dad77", "1b9346218bad7d17", "f3b477e974ac7792",
        "9b472f0e58b96be6", "da4ae1aa9fe909df", "bc016795f38743bf",
        "31e8752110c54fea", "63d4dc5850ead95a", "c15c376e63a9871d"),
    ('cohn', 0, 'json'): (
        "27b0b3ab6e0ed4fa", "f0a69412526d84d8", "962baf366610e8ad",
        "46059c2a25d4fc95", "822b40c6bec4daf8", "3386c626dd48e364",
        "f413ee06a5a5d4b0", "44c4c50065bb1b8a", "7a8bde004c23a135"),
    ('cohn', 0, 'csv'): (
        "0e2501e3ad68e019", "d74c2b9ca671dba3", "262ebcafe616fdf3",
        "d9a165bacd06ea75", "9427cef7e24463bb", "a26a6c4033963257",
        "8665fd954fcaa73d", "c66571b9c98bec2c", "dd8aa84447382b23"),
    ('cohn', 0, 'dot'): (
        "ff3a24d030d8b054", "ba92708f860aaf65", "ec030a18387c03e5",
        "a66c9eddb5683627", "a537250ea12d979e", "84e15640c1701909",
        "411d7d7ab0bd6458", "9eec532fb1fb5106", "184f1a5c9aa55c25"),
    ('cohn', 1, 'json'): (
        "4da876e9813bc6d8", "c68e6aa4b14fdb64", "4d07862406e64fa7",
        "c9e9dbadb8b366bb", "ee3a31cf9e7afcb7", "701e8f71e8e7fb13",
        "36aa26263dcf9b9d", "631dca7215e742e2", "f6e548ca92c8bfd6"),
    ('cohn', 1, 'csv'): (
        "519c3f6a673d09d6", "16513310a49584f1", "fbe0f66d16c8cb06",
        "7f97f6b72696d655", "69c9d516994ee6da", "3b88185462d59dde",
        "e4337be0b0a4bb06", "b18648b7483bd735", "2dedd0b7c06f0c3f"),
    ('cohn', 1, 'dot'): (
        "d4181010e313ecb8", "a59d12ea8cd2d414", "aab0472f7539f7e4",
        "8c9d9cf683f069a5", "baddc02a1cea4c61", "3c23cdc000ddb5e5",
        "8957c87b8ce97133", "25c7773331eda592", "19459c9e07c0b1ad"),
    ('cohn', 2, 'json'): (
        "f925aa68ae25b084", "bca4c3e63dc3d14b", "793f2c834cdfa951",
        "93524e2a389ce5e7", "54d678d8debd6f57", "018d6e9acb5cf8d1",
        "ae79270d1b30ad24", "1aa983bf5a9129e9", "4f90f2049f292a87"),
    ('cohn', 2, 'csv'): (
        "16ea3d160b026a11", "6d72d37db5bb7478", "26100d74e3cb4fee",
        "a0b554980c5c0844", "fe62ab63b002b7bc", "e027b81d4d44806c",
        "d35948488646357d", "07b97bf341c28f7c", "715c0ef0cde76f31"),
    ('cohn', 2, 'dot'): (
        "0987152cc9e0605d", "2049c0d6fd298fa1", "93b8edcc3111cb51",
        "708dcfffb805dacb", "7667d382e769fdbb", "6c454f93b0f1604e",
        "6b68e3982e505912", "4b7d076ef523ed71", "bc1fdd4c276589ae"),
    ('cohn', 3, 'json'): (
        "f3fa1618d35d1e60", "83a02fdd697b0271", "3b90e34790a0ab14",
        "91cb5ebc9de4faf5", "29a6105f426b9ec7", "010ceee7781f2924",
        "04f689ee13a3cd1b", "9e2395fb34d67b8c", "0f62b62b00f22393"),
    ('cohn', 3, 'csv'): (
        "dc1273280ed5aeb1", "56cbaa15ee8fe01e", "a4e11e3d6e77bceb",
        "66648113f6c65f77", "860b9562b67e219d", "d72945b9678ed453",
        "72ea5bae0b6176f6", "7c86257e72a8a36f", "c70ed221e601e4f2"),
    ('cohn', 3, 'dot'): (
        "46f3d9d0e61fc0d5", "6faf5e0d989b459c", "0c62531d6c40fa8a",
        "8a7e773c1e6c8a17", "f4d7afb0f845924c", "c79dcffc666f98ad",
        "5a09fd51e3ca49ab", "c5361bcbe3f80441", "1b5e60ea902ca68a"),
    ('cf', None, 'json'): (
        "13804521ea2d6527", "e58a2d5f5e5790b5", "f5c3fea14f26651e",
        "f63dec5374ced981", "87cc0df917802aed", "0e2bbf34ddfd4b52",
        "ad320b2d2828e726", "e85fff4226b37e03", "4b20d51d2d64b634"),
    ('cf', None, 'csv'): (
        "13e4378602cbd8e5", "b38f23aaef0f585e", "f96b38a9dd678cde",
        "104bf88a36a44a9f", "117a5543257cec2f", "36bdb381510a7521",
        "a5ec1f143d712b39", "1b450d7853308537", "3b32b51208be4d6b"),
    ('cf', None, 'dot'): (
        "991bbb5fd6b264ab", "28b04cf700ea8db4", "80c65fc1dec1a0dc",
        "4d66666459361e42", "bdd3dead8cec7512", "a6b64e5e8ffa99af",
        "eec67b558970b398", "dc953ca56ee63016", "53653a30f6263b05"),
    ('irrational', None, 'json'): (
        "0f166b8c74728573", "30b9e82154d1de04", "76ffe8d37c1af38e",
        "4441de1a2cfc8d18", "5afbe19e7760853d", "8658c466ed313ce4",
        "353d1c60faebb3a0", "2a9101c4d37f099c", "7c4329e85f304c82"),
    ('irrational', None, 'csv'): (
        "6fbfdb8ffdfee554", "34e95a095fc1be5c", "108a4a972071bc25",
        "07d3e6e2487f7222", "6a65259c0e1aa172", "9314ee1f8519a3f1",
        "836e73442ee1b2b7", "a62a3c775e244991", "11572e1e8601bc00"),
    ('irrational', None, 'dot'): (
        "a6699324f8c3b076", "c144369bc331ad93", "662afaf8b6df3879",
        "64c15afa3218d181", "c3c32fde0b166c13", "d4d893aef786792b",
        "c54ad1b5cf263bf4", "9f8583f71a4925a5", "ab0b9af144796cb5"),
}

KIND_PARAMS = [(kind, a) for kind in TREE_KINDS
               for a in (DEFAULT_A_VALUES if kind == "cohn" else (None,))]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("kind,a", KIND_PARAMS)
def test_renders_match_the_recorded_digests(kind, a):
    exports = [build_export(kind, depth, a or 0) for depth in range(9)]
    for fmt in FORMATS:
        got = tuple(_digest(render(export, fmt)) for export in exports)
        assert got == DIGESTS[kind, a, fmt], fmt


def test_every_kind_and_format_is_recorded():
    assert set(DIGESTS) == {(kind, a, fmt) for kind, a in KIND_PARAMS for fmt in FORMATS}


@pytest.mark.parametrize("kind,a", KIND_PARAMS)
def test_json_round_trip(kind, a):
    for depth in range(5):
        export = build_export(kind, depth, a or 0)
        assert from_json(to_json(export)) == export


def _seed_lines(export) -> list:
    return [line for line in to_dot(export).splitlines() if line.startswith("  seed_")][:2]


def test_dot_seed_labels():
    # irrational seeds are the periodized seed words (2, 2) and (1, 1)
    assert _seed_lines(build_export("irrational", 0)) == [
        '  seed_L [label="(4+√32)/4"];', '  seed_R [label="(1+√5)/2"];']
    # grown from the header, so the seeds are the export's a = 2 seeds, and a
    # cohn export without its a names no tree
    cohn = build_export("cohn", 0, 2)
    assert _seed_lines(cohn) == [
        '  seed_L [label="[[2,1],[1,1]]"];', '  seed_R [label="[[5,2],[2,1]]"];']
    with pytest.raises(DomainError, match="Cohn parameter must be an int"):
        to_dot(replace(cohn, a=None))


def test_cli_kind_choices_are_the_registry():
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    kind = next(action for action in commands.choices["tree"]._actions
                if action.dest == "kind")
    assert tuple(kind.choices) == TREE_KINDS
