"""The output spec, pinned: SHA-256 digests of what ``sample``, ``update``,
``replicate_winners`` and the library race (``sample_arrays``, ``merge_winner_maps``
and ``reduce_winners``) give on inputs generated here from fixed seeds.

Each input's own digest is pinned too, so a changed generator is told apart
from a changed output.  Key bytes move with numpy's CPU dispatch, so no pin
holds a generated key: ``sample`` runs without ``--with-key`` (only the
``--inject-keys`` table, whose keys are its input, writes them), each
``update`` line has its key field cut, and the library race pins each group's
winning label and row count only.  A change that moves an output on
purpose edits its pin and says so in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import io
import math
import random
from unittest import mock

import pytest

import numpy as np

from keyrace import cli, sampler
from keyrace.families import Family, ModelSpec
from keyrace.sampler import (
    Row,
    SeedContext,
    assign_keys,
    merge_winner_maps,
    reduce_winners,
    replicate_winners,
    sample_arrays,
)

FAMILIES = [family.value for family in Family]
_LABELS = [f"q{i:02d}" for i in range(16)] + ["ü label", "日本"]


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _sign(family: str) -> float:
    return ModelSpec(family).strength_sign or 1.0


def _strength(rng: random.Random, sign: float) -> str:
    return f"{sign * math.exp(6.0 * rng.random() - 3.0):.6g}"


def _table(family: str) -> bytes:
    """~2.6k rows of 400 groups, names with spaces and multi-byte characters but no
    quote, so that a small block size cuts the file into pieces."""
    rng, sign = random.Random(26), _sign(family)
    lines = ["ID,QUAL,Strength"]
    for g in range(400):
        lines += [f"g {g:03d}é,{label},{_strength(rng, sign)}"
                  for label in rng.sample(_LABELS, rng.randint(1, 12))]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _ties_table() -> bytes:
    """An ``--inject-keys`` table whose keys tie exactly, -0.0 with 0.0 among them,
    with names that need quotes."""
    rng = random.Random(27)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ID", "QUAL", "Strength", "KEY"])
    for g in range(60):
        gid = f"t{g:02d}" if g % 7 else f'id,"{g}"'
        for label in rng.sample(_LABELS + ["a,b", 'say "hi"', "two\nlines"], rng.randint(1, 8)):
            key = rng.choice(["-1.0", "-0.0", "0.0", "0.5", "1.0", "1e-300"])
            writer.writerow([gid, label, _strength(rng, 1.0), key])
    return buf.getvalue().encode("utf-8")


def _long_table() -> bytes:
    """3000 rows of up to 500 groups, each row's label distinct and 40 to 74 UTF-8 bytes long,
    some of them multi-byte, so that every label digest mixes several words."""
    rng = random.Random(30)
    lines = ["ID,QUAL,Strength"]
    for i in range(3000):
        tail = rng.choice(["-variant", "-ü-ü-ü", "-日本語", "-x" * rng.randint(3, 20)])
        label = f"candidate-{i:07d}-{rng.getrandbits(64):016x}{tail}"
        lines.append(f"doc-{int(500 * rng.random() ** 2):04d},{label},{_strength(rng, 1.0)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _stream(family: str) -> bytes:
    """3000 ``update`` lines: upserts and deletes of quoted and plain names, deletes of
    rows not there, and malformed, non-UTF-8, bad-number, wrong-domain and blank lines."""
    rng, sign = random.Random(28), _sign(family)
    wrong = "inf" if ModelSpec(family).strength_sign == 0 else f"{-sign:g}"
    lines = []
    for _ in range(3000):
        gid, label = f"u{rng.randrange(40)}", rng.choice(_LABELS[:15])
        r = rng.random()
        if r < 0.60:
            line = f"UPSERT {gid},{label},{_strength(rng, sign)}"
        elif r < 0.82:
            line = f"DELETE {gid},{label}"
        elif r < 0.86:
            line = f'UPSERT "{gid},x","say ""{label}""",{_strength(rng, sign)}'
        elif r < 0.88:
            line = f'delete "{gid},x","say ""{label}"""'
        elif r < 0.90:
            line = rng.choice(["FROB u1,a", f"UPSERT {gid}", "bogus", f"DELETE {gid}"])
        elif r < 0.92:
            line = f"UPSERT {gid},{label},{rng.choice(['abc', '', '1.0.0'])}"
        elif r < 0.94:
            line = f"UPSERT {gid},{label},{wrong}"
        elif r < 0.96:
            lines.append(f"UPSERT {gid},".encode("utf-8") + b"\xff\xfe," + b"1.0\n")
            continue
        elif r < 0.98:
            line = rng.choice(["", "   "])
        else:
            line = f"  upsert {gid},{label},{_strength(rng, sign)},extra\r"
        lines.append((line + "\n").encode("utf-8"))
    return b"".join(lines)


def _run(argv: list[str]) -> tuple[str, str, int]:
    """``cli.main(argv)``'s stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def _sample(path, family: str, replicates: int, threads: int, *flags: str) -> str:
    """``sample``'s stdout digest, read in 8 KiB blocks with two usable CPUs, so that
    ``--threads 2`` reads the table in two pieces."""
    with (mock.patch.object(cli, "_BLOCK_BYTES", 8 << 10),
          mock.patch.object(sampler, "_usable_cpus", lambda: 2)):
        out, err, code = _run(["sample", "--model", family, "--seed", "7", "--replicates",
                               str(replicates), "--threads", str(threads), *flags, str(path)])
    assert (err, code) == ("", 0)
    return _sha(out)


def _update(path, family: str) -> tuple[str, str, int]:
    """``update``'s stdout digest with each line's key cut, stderr digest and exit code."""
    out, err, code = _run(["update", "--model", family, "--seed", "9", str(path)])
    cut = []
    for line in out.splitlines():
        head, *tail = line.rsplit(" ", 3)  # id,label,key case rescan cmp=N
        cut.append(" ".join([head.rsplit(",", 1)[0], *tail]))
    return _sha("\n".join(cut)), _sha(err), code


def _winners(family: str) -> str:
    """``replicate_winners``' array digest for one group of 12 labels."""
    rng = random.Random(29)
    strengths = [float(_strength(rng, _sign(family))) for _ in range(12)]
    winners = replicate_winners(ModelSpec(family), _LABELS[:12], strengths, 11, 40_000)
    return _sha(winners.astype("<i8").tobytes())


def _columns(table: bytes) -> tuple[list[str], list[str], np.ndarray]:
    """A ``_table``'s rows as ``sample_arrays``' columns."""
    rows = list(csv.reader(io.StringIO(table.decode("utf-8"))))[1:]
    return [r[0] for r in rows], [r[1] for r in rows], np.array([float(r[2]) for r in rows])


def _race(winners: dict) -> str:
    """The digest of each group's winning label and row count, in group id order."""
    return _sha("".join(f"{gid}\t{w.label}\t{w.row_count}\n"
                        for gid, w in sorted(winners.items())))


INPUTS = {
    "table-+1": "3e5418c7675d2d4fc5ba4c6e4e2c12eb5a40c66861d0c272f80b1854bc0205b2",
    "table--1": "15ca45e90890976ab3df14bc68267e5d687b69e466b715b45a1cffdbe7aa4798",
    "ties": "63c0caf30d4eff8f3183dd6dc4364735e48d4a7690776c84c154a5c6c0114925",
    "long": "2d2998cf80f80516f68401b5a5a13cb73bc4ff670923de6139e097bc112fc072",
    "stream-canonical": "e73942d226b9ea8deefa07b850c16873283d39543f9f13887452fe463d5bf9f3",
    "stream-gumbel1": "3e558bda624fd09d99e3e7a564595e2587ec5b500ba49faaf5846e38600692fa",
    "stream-frechet2": "e73942d226b9ea8deefa07b850c16873283d39543f9f13887452fe463d5bf9f3",
    "stream-negexp": "57360c1d205e951b897ec8cf2e034ad0a4ac23979ff8bed1a92e384b7826b9bd",
    "stream-expmin": "e73942d226b9ea8deefa07b850c16873283d39543f9f13887452fe463d5bf9f3",
}

# canonical, frechet2 at c = d = 1 and expmin race the same weights, so their winners agree
SAMPLE = {
    "canonical-r1": "51615ca699219b5707c67c27ceee72db2da6e57dc4f9018eed39b105431725d6",
    "canonical-r3": "41d3766a168bc17bbdc5f7dc114f8c2234cc84b516cbea45c9b90454eced9ffb",
    "gumbel1-r1": "4f0f45333b084f3183720434d59968422cc57721e287853b88f3ccac1064aa9d",
    "gumbel1-r3": "9725deb93b6885debc9a5e38b16d15fab638e343c1dde67bbeaef79d7c828e1b",
    "frechet2-r1": "51615ca699219b5707c67c27ceee72db2da6e57dc4f9018eed39b105431725d6",
    "frechet2-r3": "41d3766a168bc17bbdc5f7dc114f8c2234cc84b516cbea45c9b90454eced9ffb",
    "negexp-r1": "447b6e01b54a238d73df3b0d95a9281f174c9a68e43a59a9b7fa02825461aa15",
    "negexp-r3": "56599769c7b6f12b5d493495b2f5723038fac091314165b5ef9a2357898a1d5a",
    "expmin-r1": "51615ca699219b5707c67c27ceee72db2da6e57dc4f9018eed39b105431725d6",
    "expmin-r3": "41d3766a168bc17bbdc5f7dc114f8c2234cc84b516cbea45c9b90454eced9ffb",
    "canonical-ties": "46be8d05ab53aee51352bed5a3d65294336995507379040565f5ce8be88982d2",
    "expmin-ties": "ac76d797ab682890e1c5aec4caa166fba91ba6ff5d042aac2e3467d7c31e54ff",
    "canonical-long-r1": "b524a3b4d72da9086884cad5bfecd321af2e580f17d14edf688984cef927bcb3",
    "canonical-long-r3": "bac1004640daa8eda6b1795aab578a6590ccc3744807619e6c0ce20e5e45b63e",
}

UPDATE = {
    "canonical": ("e8403ed2b61400b38149820c8d74d60e1ac325f069d76b337c45f5b29401efe4",
                  "f236d301e87f9d4bf6a8b7cb30ba7fa057d05acdd162683ab1cdc497c8294874", 4),
    "gumbel1": ("0aa9486b8814bc2d1112378f23f385c2b4a25a2461df4fa2ccfcbf8a39b6cef3",
                "802450936eb3d64ab4eb0284c542b98dfd090fade116482eb8bb71cfa1b15385", 4),
    "frechet2": ("e8403ed2b61400b38149820c8d74d60e1ac325f069d76b337c45f5b29401efe4",
                 "ce6c92a9ce0b053c6f79baee49f1dc5ed20ad11a64f57556a6218809f703d044", 4),
    "negexp": ("654388031036ed6f9c76b8683c5263654b875843cf034bec9ba39763d0389465",
               "09fd5290248f8b8190ae41c109f7542e462c9a327e1e6ad219873530ccbdbdfc", 4),
    "expmin": ("e8403ed2b61400b38149820c8d74d60e1ac325f069d76b337c45f5b29401efe4",
               "e3afd88289824eae6e9ca4749b2eb256975198e072f03ada0d65dd57842dc6d7", 4),
}

WINNERS = {
    "canonical": "1277d9a022c5cab04646c1915ce884c2f8a9f83c94c78588ae08293c262d9b98",
    "gumbel1": "e12fc494114ab16cd03180d3fbc223a62afb0fab7ef556de328de8712133198a",
    "frechet2": "1277d9a022c5cab04646c1915ce884c2f8a9f83c94c78588ae08293c262d9b98",
    "negexp": "193ffd60fef5878bfd0e237f674546d262dd1c5daaa206cada90575671a0a6d5",
    "expmin": "1277d9a022c5cab04646c1915ce884c2f8a9f83c94c78588ae08293c262d9b98",
}


# sample_arrays, a merge of its slices and reduce_winners of assign_keys race the same keys
LIBRARY = {
    "canonical": "b1d092f92e9d5651553d37b596112ef112c9a383a3a832954b36ce7c14d7e7be",
    "gumbel1": "265e1431ca545b232f29bc9626e810df32e9eec3e3cb5bf62e1ed60db4a4b889",
    "frechet2": "b1d092f92e9d5651553d37b596112ef112c9a383a3a832954b36ce7c14d7e7be",
    "negexp": "78d2b7cf14207cc7cca0622e3135d8d5114b9b667f4f76c604d9b5f1fdd9db87",
    "expmin": "b1d092f92e9d5651553d37b596112ef112c9a383a3a832954b36ce7c14d7e7be",
}


def _write(path, data: bytes, pin: str):
    assert _sha(data) == INPUTS[pin], f"input {pin} changed"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("replicates", [1, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_sample(tmp_path, forks, family, replicates, threads):
    path = _write(tmp_path / "t.csv", _table(family), f"table-{_sign(family):+g}")
    assert _sample(path, family, replicates, threads) == SAMPLE[f"{family}-r{replicates}"]
    assert (forks[0] > 0) == (threads > 1)  # a piece really was read in a child


@pytest.mark.parametrize("family", ["canonical", "expmin"])  # a max race and a min race
def test_sample_injected_ties(tmp_path, family):
    path = _write(tmp_path / "t.csv", _ties_table(), "ties")
    digest = _sample(path, family, 1, 1, "--inject-keys", "--with-key")
    assert digest == SAMPLE[f"{family}-ties"]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("replicates", [1, 3])
def test_sample_long_labels(tmp_path, replicates, threads):
    path = _write(tmp_path / "t.csv", _long_table(), "long")
    digest = _sample(path, "canonical", replicates, threads)
    assert digest == SAMPLE[f"canonical-long-r{replicates}"]


@pytest.mark.parametrize("family", FAMILIES)
def test_update(tmp_path, family):
    path = _write(tmp_path / "s.txt", _stream(family), f"stream-{family}")
    assert _update(path, family) == UPDATE[family]


@pytest.mark.parametrize("family", FAMILIES)
def test_replicate_winners(family):
    assert _winners(family) == WINNERS[family]


@pytest.mark.parametrize("family", FAMILIES)
def test_library_race(family):
    table = _table(family)
    assert _sha(table) == INPUTS[f"table-{_sign(family):+g}"], "input changed"
    groups, labels, strengths = _columns(table)
    spec, ctx = ModelSpec(family), SeedContext(7, 2)
    whole = sample_arrays(groups, labels, strengths, spec, ctx)
    assert _race(whole) == LIBRARY[family]
    # three slices, the cuts inside groups, merge to the whole table's winners
    cuts = [0, 1000, 2000, len(groups)]
    assert groups[999] == groups[1000] and groups[1999] == groups[2000]
    merged = merge_winner_maps([sample_arrays(groups[a:b], labels[a:b], strengths[a:b], spec, ctx)
                                for a, b in zip(cuts, cuts[1:])], spec.orientation)
    assert merged == whole
    keyed = assign_keys([Row(*row) for row in zip(groups, labels, strengths.tolist())], spec, ctx)
    assert _race(reduce_winners(keyed, spec.orientation)) == LIBRARY[family]
