import os
import struct
import threading

import numpy as np
import pytest
from conftest import traced_peak

from alphamargin.errors import DataFormatError
from alphamargin.synthdata import (
    Dataset,
    SynthSpec,
    generate,
    generate_heldout,
    load,
    load_csv,
    save,
)


def spec(**kw):
    base = dict(k=12, d=6, samples_per_id=5, noise_kappa=20.0, seed=3)
    base.update(kw)
    return SynthSpec(**base)


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            spec(k=1)
        with pytest.raises(ValueError):
            spec(d=1)
        with pytest.raises(ValueError):
            spec(samples_per_id=0)
        with pytest.raises(ValueError):
            spec(noise_kappa=0.0)
        with pytest.raises(ValueError):
            spec(few_fraction=1.5)


class TestGenerate:
    def test_unit_rows_and_counts(self):
        ds = generate(spec())
        np.testing.assert_allclose(np.linalg.norm(ds.points, axis=1), 1.0, atol=1e-9)
        assert ds.n == 60
        np.testing.assert_array_equal(np.bincount(ds.labels, minlength=ds.k), ds.id_counts)

    def test_deterministic_under_seed(self):
        a, b = generate(spec()), generate(spec())
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_high_kappa_collapses_to_means(self):
        ds = generate(spec(noise_kappa=1e12))
        for y in range(ds.k):
            cluster = ds.points[ds.labels == y]
            assert np.abs(cluster - cluster[0]).max() < 1e-4

    def test_nearest_mean_separability_grows_with_kappa(self):
        def accuracy(kappa):
            ds = generate(spec(k=2, d=2, samples_per_id=100, noise_kappa=kappa, seed=7))
            means = np.stack([ds.points[ds.labels == y].mean(axis=0) for y in range(2)])
            means /= np.linalg.norm(means, axis=1, keepdims=True)
            pred = np.argmax(ds.points @ means.T, axis=1)
            return np.mean(pred == ds.labels)

        assert accuracy(200.0) > accuracy(0.5)
        assert accuracy(200.0) > 0.99

    def test_long_tail_counts(self):
        s = spec(k=20, few_fraction=0.3, few_count=2)
        ds = generate(s)
        assert np.sum(ds.id_counts == 2) == int(np.ceil(0.3 * 20))
        assert np.sum(ds.id_counts == 5) == 20 - 6

    def test_heldout_shares_identity_geometry(self):
        s = spec(noise_kappa=1e6)
        train = generate(s)
        held = generate_heldout(s, per_id=3)
        assert held.n == 36
        # same tight clusters around the same means, different noise stream
        for y in range(s.k):
            mu_train = train.points[train.labels == y].mean(axis=0)
            mu_held = held.points[held.labels == y].mean(axis=0)
            assert np.abs(mu_train - mu_held).max() < 1e-2
        assert not np.array_equal(
            train.points[train.labels == 0][0], held.points[held.labels == 0][0]
        )


class TestBinaryIO:
    def test_round_trip_bitwise(self, tmp_path):
        ds = generate(spec())
        path = tmp_path / "ds.bin"
        save(ds, path)
        back = load(path)
        np.testing.assert_array_equal(ds.points, back.points)
        np.testing.assert_array_equal(ds.labels, back.labels)
        np.testing.assert_array_equal(ds.id_counts, back.id_counts)

    def test_truncated_file(self, tmp_path):
        ds = generate(spec())
        path = tmp_path / "ds.bin"
        save(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(DataFormatError, match="truncated"):
            load(path)

    def test_trailing_bytes(self, tmp_path):
        ds = generate(spec())
        path = tmp_path / "ds.bin"
        save(ds, path)
        path.write_bytes(path.read_bytes() + bytes(13))
        with pytest.raises(DataFormatError, match="13 trailing bytes"):
            load(path)

    def test_bad_magic(self, tmp_path):
        ds = generate(spec())
        path = tmp_path / "ds.bin"
        save(ds, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            load(path)

    def test_version_mismatch(self, tmp_path):
        ds = generate(spec())
        path = tmp_path / "ds.bin"
        save(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            load(path)

    def test_label_out_of_range(self, tmp_path):
        ds = generate(spec())
        ds.labels[-1] = ds.k
        path = tmp_path / "ds.bin"
        save(ds, path)
        with pytest.raises(DataFormatError, match=f"label out of range for k={ds.k}$"):
            load(path)

    def test_huge_n_in_header(self, tmp_path):
        # N = 2^62 rows of 6 floats and a label: 2^64 * 13 bytes, which int64
        # arithmetic would wrap to 0, the size of this header-only file
        path = tmp_path / "ds.bin"
        path.write_bytes(b"SYND" + struct.pack("<IQII", 1, 2**62, 6, 12))
        need = 24 + 2**62 * 52
        with pytest.raises(DataFormatError, match=rf"truncated \(24 bytes, expected {need}\)"):
            load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point(self, tmp_path, bad):
        ds = generate(spec())
        ds.points[3, 2] = bad
        path = tmp_path / "ds.bin"
        save(ds, path)
        with pytest.raises(DataFormatError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: point coordinates must be finite"

    def test_header_sized_file_beyond_memory_raises_memory_error(self, tmp_path, monkeypatch):
        # a regular file of exactly its header's size is not corrupt: an
        # allocation that fails is re-raised, not turned into a format error
        path = tmp_path / "ds.bin"
        save(generate(spec()), path)

        def no_memory(*args, **kwargs):
            raise MemoryError("allocation refused")

        monkeypatch.setattr(np, "empty", no_memory)
        with pytest.raises(MemoryError, match="allocation refused"):
            load(path)

    def test_load_holds_about_one_file_size(self, tmp_path):
        # the arrays are read in place, not copied out of the whole file's bytes
        ds = generate(spec(k=100, d=16, samples_per_id=200))
        path = tmp_path / "ds.bin"
        save(ds, path)
        size = path.stat().st_size
        assert 2.5e6 < size < 2.7e6
        back, peak = traced_peak(load, path)
        np.testing.assert_array_equal(back.points, ds.points)
        assert peak <= 1.1 * size, (peak, size)

    @staticmethod
    def _load_through_a_pipe(tmp_path, raw):
        """load() of a FIFO fed raw by a writer thread: a stream without a size."""
        fifo = tmp_path / "ds.fifo"
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "wb") as fh:
                    fh.write(raw)
            except BrokenPipeError:  # the reader stopped at a bad header
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            return load(fifo)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    def test_pipe_reads_alike(self, tmp_path):
        ds = generate(spec())
        path = tmp_path / "ds.bin"
        save(ds, path)
        back = self._load_through_a_pipe(tmp_path, path.read_bytes())
        np.testing.assert_array_equal(ds.points, back.points)
        np.testing.assert_array_equal(ds.labels, back.labels)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: raw[:-16],
            lambda raw: raw + bytes(13),
            lambda raw: raw[:20],
            lambda raw: b"NOPE" + raw[4:],
            lambda raw: b"SYND" + struct.pack("<IQII", 1, 2**62, 6, 12),  # more than memory
            lambda raw: b"SYND" + struct.pack("<IQII", 1, 2**40, 6, 12),
        ],
        ids=["truncated", "trailing", "short_header", "magic", "huge_n", "large_n"],
    )
    def test_pipe_gives_the_file_errors(self, tmp_path, corrupt):
        path = tmp_path / "ds.bin"
        save(generate(spec()), path)
        raw = corrupt(path.read_bytes())
        path.write_bytes(raw)
        with pytest.raises(DataFormatError) as from_file:
            load(path)
        with pytest.raises(DataFormatError) as from_pipe:
            self._load_through_a_pipe(tmp_path, raw)
        assert str(from_pipe.value) == str(from_file.value).replace("ds.bin", "ds.fifo")

    def test_bytes_pin_the_format(self, tmp_path):
        ds = generate(spec())
        path = tmp_path / "ds.bin"
        save(ds, path)
        want = b"SYND" + struct.pack("<IQII", 1, ds.n, ds.d, ds.k)
        want += ds.points.astype("<f8").tobytes() + ds.labels.astype("<i4").tobytes()
        assert path.read_bytes() == want


class TestCsvImport:
    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "emb.csv"
        rows = ["0,1.0,0.0,0.0", "0,0.8,0.6,0.0", "1,0.0,0.0,1.0"]
        path.write_text("\n".join(rows) + "\n")
        ds = load_csv(path)
        assert ds.k == 2
        np.testing.assert_allclose(ds.points[1], [0.8, 0.6, 0.0])
        np.testing.assert_array_equal(ds.id_counts, [2, 1])

    def test_rejects_non_integer_labels(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("0.5,1.0,0.0\n")
        with pytest.raises(DataFormatError):
            load_csv(path)

    @pytest.mark.parametrize("label", ["nan", "inf", "1e30"])
    def test_rejects_non_finite_labels(self, tmp_path, label):
        # refused as non-integers, without a RuntimeWarning from the cast
        path = tmp_path / "emb.csv"
        path.write_text(f"0,1.0,0.0\n{label},0.0,1.0\n")
        with pytest.raises(DataFormatError, match="labels must be integers"):
            load_csv(path)

    @pytest.mark.parametrize("row", ["1,nan,0.0", "1,0.0,inf", "1,-inf,1.0"])
    def test_rejects_non_finite_points(self, tmp_path, row):
        path = tmp_path / "emb.csv"
        path.write_text(f"0,1.0,0.0\n{row}\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: point coordinates must be finite"

    def test_rejects_fewer_than_three_columns(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("0,1.0\n1,0.5\n")
        with pytest.raises(DataFormatError, match="d >= 2"):
            load_csv(path)

    @pytest.mark.parametrize("label, k", [(2, 2), (-1, None)])
    def test_rejects_label_out_of_range(self, tmp_path, label, k):
        path = tmp_path / "emb.csv"
        path.write_text(f"0,1.0,0.0\n{label},0.0,1.0\n")
        with pytest.raises(DataFormatError, match="label out of range"):
            load_csv(path, k=k)
