"""Binary container: format framing, array fidelity, artifact roundtrips."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskcompose.codec import learn_codebook
from maskcompose.container import (
    Section,
    _decode_keys,
    array_section,
    dump_text,
    load_codebook,
    load_count_model,
    load_world,
    read_container,
    save_codebook,
    save_count_model,
    save_world,
    section_array,
    write_container,
)
from maskcompose.countmodel import fit_count_model
from maskcompose.errors import ValidationError
from maskcompose.sampler import MaskedState
from maskcompose.worlds import (
    build_random_factorized_world,
    build_scene_world,
    cell_table,
)


class TestFraming:
    def test_roundtrip_preserves_sections(self, tmp_path):
        path = str(tmp_path / "x.dcw")
        sections = [
            Section("alpha", {"a": 1, "b": "two"}, b"payload"),
            Section("beta", {}, b""),
        ]
        write_container(path, sections)
        back = read_container(path)
        assert [(s.name, s.meta, s.data) for s in back] == [
            ("alpha", {"a": 1, "b": "two"}, b"payload"),
            ("beta", {}, b""),
        ]

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "x.dcw")
        write_container(path, [])
        raw = (tmp_path / "x.dcw").read_bytes()
        assert raw[:4] == b"DCW1"
        assert struct.unpack("<II", raw[4:12]) == (1, 0)
        assert len(raw) == 12

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dcw"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(ValidationError):
            read_container(str(path))

    def test_rejects_trailing_garbage(self, tmp_path):
        path = tmp_path / "trail.dcw"
        path.write_bytes(b"DCW1" + struct.pack("<II", 1, 0) + b"zz")
        with pytest.raises(ValidationError):
            read_container(str(path))

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "v9.dcw"
        path.write_bytes(b"DCW1" + struct.pack("<II", 9, 0))
        with pytest.raises(ValidationError):
            read_container(str(path))

    def test_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.dcw"), str(tmp_path / "b.dcw")
        sections = [Section("s", {"k": 3, "a": [1, 2]}, b"\x00\x01")]
        write_container(a, sections)
        write_container(b, sections)
        assert (tmp_path / "a.dcw").read_bytes() == (tmp_path / "b.dcw").read_bytes()


class TestArraySections:
    def test_float_array_roundtrip(self):
        arr = np.array([[1.5, -2.25], [0.0, 3.125]])
        s = array_section("m", arr, {"note": "x"})
        back = section_array(s)
        assert np.array_equal(back, arr)
        assert back.dtype == np.float64
        assert s.meta["note"] == "x"

    def test_int_array_roundtrip(self):
        arr = np.array([[1, -7]], dtype=np.int16)
        assert np.array_equal(section_array(array_section("m", arr)), arr)

    def test_unsupported_dtype(self):
        with pytest.raises(ValidationError):
            array_section("m", np.array([1 + 2j]))


class TestWorldArtifacts:
    def test_scene_world_roundtrip(self, tmp_path):
        world = build_scene_world(3, 2, n_shapes=2, n_colors=1, max_objects=2)
        path = str(tmp_path / "w.dcw")
        save_world(path, world)
        back = load_world(path)
        assert back.params() == world.params()
        assert np.array_equal(back.support()[0], world.support()[0])

    def test_factorized_world_roundtrip(self, tmp_path):
        world = build_random_factorized_world(2, 2, 3, n_conditions=2, seed=4)
        path = str(tmp_path / "f.dcw")
        save_world(path, world)
        back = load_world(path)
        assert np.allclose(back.prior_tables, world.prior_tables)
        assert sorted(back.table_conditions) == sorted(world.table_conditions)
        for name in world.table_conditions:
            cond = cell_table(name)
            assert np.allclose(
                back.conditional_tables(cond), world.conditional_tables(cond)
            )

    def test_same_world_same_bytes(self, tmp_path):
        world = build_random_factorized_world(2, 2, 3, n_conditions=2, seed=4)
        save_world(str(tmp_path / "1.dcw"), world)
        save_world(str(tmp_path / "2.dcw"), world)
        assert (tmp_path / "1.dcw").read_bytes() == (tmp_path / "2.dcw").read_bytes()

    def test_missing_world_section(self, tmp_path):
        path = str(tmp_path / "none.dcw")
        write_container(path, [Section("other", {}, b"")])
        with pytest.raises(ValidationError):
            load_world(path)


class TestModelArtifacts:
    def test_count_model_roundtrip(self, tmp_path):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2)
        model = fit_count_model(world, 3000, rng_seed=6)
        path = str(tmp_path / "m.dcw")
        save_count_model(path, model)
        back = load_count_model(path)
        assert back.counts.keys() == model.counts.keys()
        for key in model.counts:
            assert np.array_equal(back.counts[key], model.counts[key])
        tokens = MaskedState.fully_masked(4).tokens
        a = model.predict(tokens, None)
        b = back.predict(tokens, None)
        for p in range(tokens.size):
            assert np.array_equal(a[p], b[p])

    def test_empty_model_roundtrip(self, tmp_path):
        from maskcompose.countmodel import CountModel

        model = CountModel(grid_w=2, grid_h=1, vocab_size=3)
        path = str(tmp_path / "empty.dcw")
        save_count_model(path, model)
        back = load_count_model(path)
        assert back.counts == {}
        assert back.vocab_size == 3

    def test_decoded_keys_match_a_per_key_decode(self, tmp_path):
        def per_key_decode(data):
            def deep_tuple(v):
                return tuple(deep_tuple(x) for x in v) if isinstance(v, list) else v
            return [(int(p), tuple(int(v) for v in sig), deep_tuple(c))
                    for p, sig, c in json.loads(data)]

        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2)
        path = str(tmp_path / "m.dcw")
        save_count_model(path, fit_count_model(world, 3000, rng_seed=6))
        fitted = {s.name: s for s in read_container(path)}["bucket_keys"].data
        # nested joint keys, and values that compare equal across types
        crafted = json.dumps([
            [0, [1, 2], ["joint", ["a", 1], ["a", 1.0]]], [1, [], ["joint", ["a", True]]],
            [2, [3], ["object_at_cell", 0, 0]], [3, [], ["object_at_cell", 0, 0]],
            [0, [], "uncond"], [1, [0], None], [2, [], ["joint", ["a", 1], ["a", 1.0]]],
            [3, [1], ["joint", ["A", 1], ["a", 1.0]]],
        ]).encode()
        for data in (fitted, crafted):
            keys = _decode_keys(data)
            assert keys == per_key_decode(data)
            assert repr(keys) == repr(per_key_decode(data))  # 1, 1.0 and True kept apart
        keys = _decode_keys(crafted)
        assert keys[2][2] is keys[3][2] and keys[0][2] is keys[6][2]

    @pytest.mark.parametrize("ckey", [{"a": 1}, ["joint", {"a": 1}]])
    def test_rejects_a_json_object_in_a_condition_key(self, ckey):
        data = json.dumps([[0, [], ["object_at_cell", 0, 0]], [1, [], ckey]]).encode()
        with pytest.raises(ValidationError, match="bucket keys"):
            _decode_keys(data)

    def test_same_model_same_bytes(self, tmp_path):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        model = fit_count_model(world, 500, rng_seed=1)
        save_count_model(str(tmp_path / "1.dcw"), model)
        save_count_model(str(tmp_path / "2.dcw"), model)
        assert (tmp_path / "1.dcw").read_bytes() == (tmp_path / "2.dcw").read_bytes()


class TestCodebookArtifacts:
    def test_codebook_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        cb = learn_codebook(rng.random((80, 12)), n_entries=6,
                            patch_h=2, patch_w=2, channels=3, rng_seed=2)
        path = str(tmp_path / "cb.dcw")
        save_codebook(path, cb)
        back = load_codebook(path)
        assert np.array_equal(back.entries, cb.entries)
        assert back.patch_h == 2 and back.patch_w == 2 and back.channels == 3
        assert back.objective_history == cb.objective_history


class TestTextDump:
    def test_dump_mentions_every_section(self, tmp_path):
        world = build_random_factorized_world(2, 1, 2, n_conditions=1, seed=0)
        path = str(tmp_path / "w.dcw")
        save_world(path, world)
        text = dump_text(path)
        assert "world" in text
        assert "prior_tables" in text
        assert "condition/c0" in text
        assert "DCW1" in text


LOADERS = {
    "scene": load_world,
    "factorized": load_world,
    "count_model": load_count_model,
    "codebook": load_codebook,
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Valid artifact bytes of each kind, and a scratch path to write corrupt copies to."""
    root = tmp_path_factory.mktemp("artifacts")
    world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2)
    rng = np.random.default_rng(0)
    savers = {
        "scene": lambda p: save_world(p, world),
        "factorized": lambda p: save_world(
            p, build_random_factorized_world(2, 2, 3, n_conditions=2, seed=1)
        ),
        "count_model": lambda p: save_count_model(p, fit_count_model(world, 300, rng_seed=2)),
        "codebook": lambda p: save_codebook(
            p, learn_codebook(rng.random((20, 4)), n_entries=3, patch_h=1, patch_w=2,
                              channels=2, rng_seed=0)
        ),
    }
    out = {}
    for kind, save in savers.items():
        path = root / f"{kind}.dcw"
        save(str(path))
        out[kind] = path.read_bytes()
    return out, root / "corrupt.dcw"


class TestCorruptArtifacts:
    """A truncated or bit-flipped artifact either loads or raises ValidationError."""

    @given(kind=st.sampled_from(sorted(LOADERS)), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_truncation_or_bit_flip(self, artifacts, kind, data):
        valid, path = artifacts
        raw = valid[kind]
        if data.draw(st.booleans(), label="truncate"):
            bad = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
            bad = bytearray(raw)
            bad[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(bad))
        try:
            LOADERS[kind](str(path))
        except ValidationError:
            pass

    def test_truncated_artifact_names_the_file(self, artifacts):
        valid, path = artifacts
        path.write_bytes(valid["count_model"][:40])
        with pytest.raises(ValidationError, match="corrupt.dcw"):
            load_count_model(str(path))

    @pytest.mark.parametrize("edit", [lambda c: c[1:], lambda c: c[:, 1:], lambda c: -c])
    def test_rejects_bucket_counts_that_do_not_fit_the_keys(self, artifacts, edit):
        valid, path = artifacts
        path.write_bytes(valid["count_model"])
        sections = read_container(str(path))
        for i, s in enumerate(sections):
            if s.name == "bucket_counts":
                sections[i] = array_section(s.name, edit(section_array(s)))
        write_container(str(path), sections)
        with pytest.raises(ValidationError, match="bucket counts"):
            load_count_model(str(path))
