"""Every artifact reader against damaged files.

Each of the six loaders reads small valid files bit for bit and rejects a
truncated file, any changed byte and any oversized header field with
:class:`FormatError`, never with an allocation or decoding error.
"""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cromflow._binio import FormatError, read_arrays, write_arrays
from cromflow.eqp import RULE_MAGIC, EqpRule, load_rule, save_rule
from cromflow.fom import SOLUTION_MAGIC, load_solution, save_solution
from cromflow.geometry import SIDES, TAGS
from cromflow.harness import ExperimentConfig
from cromflow.reduction import (
    BASIS_MAGIC,
    TENSOR_MAGIC,
    PodBasis,
    ReducedComponentOperators,
    basis_checksum,
    load_basis,
    load_tensor,
    save_basis,
    save_tensor,
)
from cromflow.rom import (
    MODEL_MAGIC,
    ROM_SOLUTION_MAGIC,
    load_rom_solution,
    model_config,
    read_model,
    save_model,
    save_rom_solution,
)
from cromflow.weakforms import BoundaryLoadBuilder, InterfaceBlocks

FUZZ = settings(max_examples=60, deadline=None)
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324])


def _orthonormal(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, k)))[0]


def make_basis(rng, name):
    r_u, z, r_p = int(rng.integers(1, 5)), int(rng.integers(0, 3)), int(rng.integers(1, 4))
    return PodBasis(
        name,
        _orthonormal(rng, 30, r_u + z),
        _orthonormal(rng, 10, r_p),
        np.sort(rng.random(8))[::-1].copy(),
        np.sort(rng.random(6))[::-1].copy(),
        r_u,
        r_p,
        z,
        float(rng.random()),
    )


def make_rule(rng, name):
    n, r = int(rng.integers(0, 12)), int(rng.integers(1, 5))
    eps = float(rng.random())
    return EqpRule(
        name,
        rng.integers(0, 2**40, size=n),
        rng.integers(0, 12, size=n),
        rng.random(n) + 0.1,
        eps,
        eps * float(rng.random()),
        r,
        rng.standard_normal((n, r, 2)),
        rng.standard_normal((n, r, 2, 2)),
        basis_checksum(rng.standard_normal((5, r))),
    )


def make_model(rng, name):
    """A one-component reduced model: (config, reduced operators, interface blocks)."""
    r_u, r_p = int(rng.integers(0, 5)), int(rng.integers(0, 4))
    basis = make_basis(rng, name)
    # Nitsche blocks for the four sides and maybe an obstacle wall; load
    # maps for the sides only
    K_di, B_di, loads = {}, {}, {}
    for tag in TAGS[: int(rng.integers(len(SIDES), len(TAGS) + 1))]:
        K_di[tag] = rng.standard_normal((r_u, r_u))
        B_di[tag] = rng.standard_normal((r_p, r_u))
    for side in SIDES:
        q = int(rng.integers(0, 4))
        loads[side] = BoundaryLoadBuilder(
            rng.random((q, 2)),
            rng.standard_normal((r_u, 2 * q)),
            rng.standard_normal((r_p, 2 * q)),
        )
    K = rng.standard_normal((r_u, r_u))
    K.flat[: SPECIAL.size] = SPECIAL[: K.size]
    red = ReducedComponentOperators(
        name, basis, K, rng.standard_normal((r_p, r_u)), rng.standard_normal((r_p, r_p)),
        K_di, B_di, loads, rng.standard_normal(r_p),
    )
    interfaces = {
        (name, name, o): InterfaceBlocks(
            K={st: rng.standard_normal((r_u, r_u)) for st in ("mm", "mn", "nm", "nn")},
            B={st: rng.standard_normal((r_p, r_u)) for st in ("mm", "mn", "nm", "nn")},
        )
        for o in ("H", "V")
    }
    cfg = ExperimentConfig(components=(name,), reynolds=float(rng.random()) + 1.0)
    return cfg, {name: red}, interfaces


def make_fields(rng, n_u, n_p, columns):
    shape = (columns,) if columns else ()
    u, p = rng.standard_normal((n_u, *shape)), rng.standard_normal((n_p, *shape))
    u.flat[: SPECIAL.size] = SPECIAL
    extra = {"ids": rng.integers(-(2**62), 2**62, size=5), "scale": rng.random()}
    return u, p, extra


# kind -> (magic, make(rng, name), save(obj, path), load(path))
ARTIFACTS = {
    "basis": (BASIS_MAGIC, make_basis, save_basis, load_basis),
    "tensor": (
        TENSOR_MAGIC,
        lambda rng, name: rng.standard_normal((int(rng.integers(0, 6)),) * 3),
        save_tensor,
        load_tensor,
    ),
    "rule": (RULE_MAGIC, make_rule, save_rule, load_rule),
    "solution": (
        SOLUTION_MAGIC,
        lambda rng, name: make_fields(rng, 24, 8, int(rng.integers(0, 4))),
        lambda obj, path: save_solution(path, *obj),
        load_solution,
    ),
    "rom_solution": (
        ROM_SOLUTION_MAGIC,
        lambda rng, name: make_fields(rng, 12, 5, 0),
        lambda obj, path: save_rom_solution(path, *obj),
        load_rom_solution,
    ),
    "rom_model": (
        MODEL_MAGIC,
        make_model,
        lambda obj, path: save_model(path, *obj),
        read_model,
    ),
}
KINDS = sorted(ARTIFACTS)
# the magics of the layouts before the current one
OLD_MAGICS = {
    "basis": b"CROMBAS2",
    "tensor": b"CROMTEN1",
    "rule": b"CROMEQP2",
    "solution": b"CROMSOL1",
    "rom_solution": b"CROMRSOL1",
    "rom_model": b"CROMROM1",
}


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def model_fields(obj) -> dict:
    """A made (config, reduced, interfaces) or read (config, checksums,
    reduced, interfaces) model, as comparable bit patterns."""
    if len(obj) == 3:
        cfg, reduced, interfaces = obj
        config = model_config(cfg)
        checksums = {name: basis_checksum(red.basis.phi_u) for name, red in reduced.items()}
    else:
        config, checksums, reduced, interfaces = obj
    out = {"config": config, "checksums": checksums}
    for name, red in reduced.items():
        for key in ("K", "B", "C", "pressure_mean"):
            out[name, key] = _bits(getattr(red, key))
        for tag in red.K_di:
            out[name, tag] = (_bits(red.K_di[tag]), _bits(red.B_di[tag]))
        for side, load in red.loads.items():
            out[name, side, "loads"] = tuple(
                _bits(a) for a in (load.xy, load.dirichlet_u, load.dirichlet_p)
            )
    for key, blocks in interfaces.items():
        out[key] = {st: (_bits(blocks.K[st]), _bits(blocks.B[st])) for st in blocks.K}
    return out


def fields(kind, obj) -> dict:
    """Everything a loader returns, as comparable bit patterns."""
    if kind == "rom_model":
        return model_fields(obj)
    if kind == "tensor":
        return {"tensor": _bits(obj)}
    if kind in ("solution", "rom_solution"):
        if isinstance(obj, dict):
            return {name: _bits(a) for name, a in obj.items()}
        u, p, extra = obj
        names = ("u", "p") if kind == "solution" else ("u_hat", "p_hat")
        out = {names[0]: _bits(u), names[1]: _bits(p)}
        out.update({name: _bits(a) for name, a in extra.items()})
        return out
    if kind == "basis":
        out = {"component": obj.component, "sizes": (obj.R_u, obj.R_p, obj.Z)}
        names = ("phi_u", "phi_p", "sigma_u", "sigma_p", "pressure_penalty")
    else:
        out = {"component": obj.component, "n_basis": obj.n_basis, "checksum": obj.phi_u_checksum}
        names = ("element_ids", "local_ids", "weights", "eps", "residual",
                 "basis_values", "basis_grads")
    out.update({name: _bits(getattr(obj, name)) for name in names})
    return out


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """kind -> (object, bytes of its file): one small valid file per loader."""
    out = {}
    for kind in KINDS:
        _, make, save, _ = ARTIFACTS[kind]
        path = tmp_path_factory.mktemp("valid") / f"{kind}.bin"
        obj = make(np.random.default_rng(0), "circle")
        save(obj, path)
        out[kind] = (obj, path.read_bytes())
    return out


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "file.bin"


def _load(kind, raw, path):
    path.write_bytes(bytes(raw))
    return ARTIFACTS[kind][3](path)


def _with_crc(raw):
    """``raw`` with its trailing checksum recomputed."""
    body = bytes(raw[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def header_fields(raw, magic) -> dict:
    """Byte offsets of the u64 header fields: the array count, and per array
    its name length, ndim and dims."""
    pos = len(magic)
    fields = {"count": [pos], "name": [], "ndim": [], "dims": []}
    (count,) = struct.unpack_from("<Q", raw, pos)
    pos += 8
    for _ in range(count):
        fields["name"].append(pos)
        (n,) = struct.unpack_from("<Q", raw, pos)
        pos += 8 + n + 2
        fields["ndim"].append(pos)
        (ndim,) = struct.unpack_from("<Q", raw, pos)
        dims = struct.unpack_from(f"<{ndim}Q", raw, pos + 8)
        fields["dims"].extend(pos + 8 + 8 * i for i in range(ndim))
        pos += 8 + 8 * ndim + 8 * math.prod(dims)
    assert pos == len(raw) - 4
    return fields


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(seed=st.integers(0, 2**32 - 1), name=st.text(min_size=1, max_size=12))
def test_round_trip_is_bit_exact(kind, seed, name, scratch):
    _, make, save, load = ARTIFACTS[kind]
    obj = make(np.random.default_rng(seed), name)
    save(obj, scratch)
    assert fields(kind, load(scratch)) == fields(kind, obj)


def test_writer_is_deterministic(valid, tmp_path):
    for kind in KINDS:
        obj, raw = valid[kind]
        ARTIFACTS[kind][2](obj, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == raw


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(data=st.data())
def test_truncation_is_rejected(kind, data, valid, scratch):
    raw = valid[kind][1]
    n = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(FormatError):
        _load(kind, raw[:n], scratch)


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(data=st.data(), flip=st.integers(1, 255))
def test_any_changed_byte_is_rejected(kind, data, flip, valid, scratch):
    raw = bytearray(valid[kind][1])
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= flip
    with pytest.raises(FormatError):
        _load(kind, raw, scratch)


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(data=st.data(), flip=st.integers(1, 255))
def test_changed_byte_under_a_valid_checksum_loads_or_is_rejected(
    kind, data, flip, valid, scratch
):
    # the parser and the loader's own checks, without the checksum's help
    raw = bytearray(valid[kind][1])
    raw[data.draw(st.integers(0, len(raw) - 5))] ^= flip
    try:
        _load(kind, _with_crc(raw), scratch)
    except FormatError:
        pass


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fix_crc", [False, True])
@FUZZ
@given(data=st.data(), value=st.integers(2**32, 2**64 - 1))
def test_oversized_header_field_is_rejected(kind, fix_crc, data, value, valid, scratch):
    magic = ARTIFACTS[kind][0]
    raw = bytearray(valid[kind][1])
    offset = data.draw(st.sampled_from(sum(header_fields(raw, magic).values(), [])))
    struct.pack_into("<Q", raw, offset, value)
    with pytest.raises(FormatError):
        _load(kind, _with_crc(raw) if fix_crc else raw, scratch)


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(tail=st.binary(min_size=1, max_size=64))
def test_trailing_bytes_are_rejected(kind, tail, valid, scratch):
    raw = valid[kind][1]
    with pytest.raises(FormatError):
        _load(kind, raw + tail, scratch)
    # the checksum of the longer file does not help it either
    with pytest.raises(FormatError, match="trailing"):
        _load(kind, _with_crc(raw[:-4] + tail + bytes(4)), scratch)


@pytest.mark.parametrize("kind", sorted(OLD_MAGICS))
def test_old_layout_is_rejected_naming_both_magics(kind, valid, scratch):
    magic = ARTIFACTS[kind][0]
    old = OLD_MAGICS[kind]
    raw = old + valid[kind][1][len(magic) :]
    with pytest.raises(FormatError, match=f"expected {magic!r}, found {old!r}"):
        _load(kind, raw, scratch)


def _rename(raw, magic, index, new: bytes):
    """``raw`` with the name of array ``index`` overwritten, checksum fixed."""
    raw = bytearray(raw)
    offset = header_fields(raw, magic)["name"][index]
    (n,) = struct.unpack_from("<Q", raw, offset)
    assert len(new) == n
    raw[offset + 8 : offset + 8 + n] = new
    return _with_crc(raw)


def test_duplicate_and_non_utf8_names_are_rejected(valid, scratch):
    # "u" and "p" are the first two arrays of a solution file
    raw = valid["solution"][1]
    with pytest.raises(FormatError, match="duplicate"):
        _load("solution", _rename(raw, SOLUTION_MAGIC, 1, b"u"), scratch)
    with pytest.raises(FormatError, match="UTF-8"):
        _load("solution", _rename(raw, SOLUTION_MAGIC, 1, b"\xff"), scratch)


def _stored(kind, valid, scratch) -> dict:
    scratch.write_bytes(valid[kind][1])
    return read_arrays(scratch, ARTIFACTS[kind][0], {}, extra=True)


@pytest.mark.parametrize("kind", ["rom_model", "rule"])
@FUZZ
@given(data=st.data())
def test_missing_array_is_rejected(kind, data, valid, scratch):
    arrays = _stored(kind, valid, scratch)
    del arrays[data.draw(st.sampled_from(sorted(arrays)))]
    write_arrays(scratch, ARTIFACTS[kind][0], arrays)
    with pytest.raises(FormatError):
        ARTIFACTS[kind][3](scratch)


@pytest.mark.parametrize("kind", ["rom_model", "rule"])
@FUZZ
@given(data=st.data(), grow=st.booleans())
def test_misshapen_array_is_rejected(kind, data, grow, valid, scratch):
    # a new leading axis, or one more entry along the first axis, whose size
    # every array shares with another or with the layout
    arrays = _stored(kind, valid, scratch)
    names = sorted(arrays)
    if grow and kind == "rule":
        names.remove("component")           # a name of any length is valid
    name = data.draw(st.sampled_from(names))
    a = arrays[name]
    if not grow:
        arrays[name] = a[None]
    else:
        shape = (a.shape[0] + 1,) + a.shape[1:] if a.ndim else (2,)
        arrays[name] = np.zeros(shape, a.dtype)
    write_arrays(scratch, ARTIFACTS[kind][0], arrays)
    with pytest.raises(FormatError):
        ARTIFACTS[kind][3](scratch)


@pytest.mark.parametrize(
    "change,match",
    [
        ({"component": np.array([0xFF, 0x41])}, "UTF-8"),
        ({"component": np.array([300])}, "byte string"),
        ({"weights": np.ones(3)}, "shape"),
        ({"weights": np.array([1.0, np.nan])}, "positive"),
        ({"residual": np.nan}, "threshold"),
        ({"local_ids": np.zeros(2)}, "expected i8"),
        ({"residual": np.zeros(1)}, "shape"),
        ({"eps": None}, "missing"),
        ({"spare": np.zeros(2)}, "unexpected"),
    ],
)
def test_rule_arrays_are_checked_by_name_dtype_and_shape(change, match, scratch):
    arrays = {
        "component": np.array([0x41]),
        "element_ids": np.arange(2),
        "local_ids": np.arange(2),
        "weights": np.ones(2),
        "eps": 0.1,
        "residual": 0.01,
        "basis_values": np.zeros((2, 3, 2)),
        "basis_grads": np.zeros((2, 3, 2, 2)),
        "phi_u_checksum": np.full(64, 0x30),
    }
    arrays.update(change)
    write_arrays(scratch, RULE_MAGIC, {k: v for k, v in arrays.items() if v is not None})
    with pytest.raises(FormatError, match=match):
        load_rule(scratch)


def test_tensor_must_be_cubic(scratch):
    write_arrays(scratch, TENSOR_MAGIC, {"tensor": np.zeros((3, 3, 4))})
    with pytest.raises(FormatError, match="shape"):
        load_tensor(scratch)


def test_solution_fields_must_pair(scratch):
    save_solution(scratch, np.zeros((6, 3)), np.zeros((2, 4)))
    with pytest.raises(FormatError, match="pair"):
        load_solution(scratch)


@pytest.mark.parametrize(
    "name,value,match",
    [
        ("Z", 99, "supremizers"),
        ("Z", -1, "supremizers"),
        ("phi_u", np.nan, "orthonormal"),
        ("phi_p", 1e300, "orthonormal"),
        ("pressure_penalty", np.inf, "penalty"),
    ],
)
def test_basis_values_are_checked(name, value, match, valid, scratch):
    save_basis(valid["basis"][0], scratch)
    arrays = read_arrays(scratch, BASIS_MAGIC, {}, extra=True)
    if arrays[name].ndim:
        arrays[name].flat[0] = value
    else:
        arrays[name] = np.asarray(value, dtype=arrays[name].dtype)
    write_arrays(scratch, BASIS_MAGIC, arrays)
    with pytest.raises(FormatError, match=match):
        load_basis(scratch)
