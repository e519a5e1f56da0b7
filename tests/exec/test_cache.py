"""Tests for the content-addressed result cache."""

import json
import os

import pytest

from repro.core import spp1000
from repro.exec.cache import CACHE_SCHEMA, ResultCache, default_cache_root
from repro.exec.fingerprint import code_fingerprint
from repro.exec.units import WorkUnit

UNIT = WorkUnit("fig0", "k:1", {"p": 1})


def make_cache(tmp_path, fingerprint="f" * 64):
    return ResultCache(str(tmp_path / "cache"), fingerprint)


def test_put_get_roundtrip(tmp_path):
    cache = make_cache(tmp_path)
    digest = cache.digest(UNIT, spp1000())
    with pytest.raises(KeyError):
        cache.get(digest)
    cache.put(digest, {"v": [1.5, 2]}, UNIT)
    assert cache.get(digest) == {"v": [1.5, 2]}
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert cache.entries() == 1


def test_digest_is_stable_across_instances(tmp_path):
    a = make_cache(tmp_path).digest(UNIT, spp1000())
    b = make_cache(tmp_path).digest(UNIT, spp1000())
    assert a == b
    assert len(a) == 64


def test_digest_depends_on_every_ingredient(tmp_path):
    cache = make_cache(tmp_path)
    base = cache.digest(UNIT, spp1000())
    assert cache.digest(WorkUnit("fig0", "k:1", {"p": 2}),
                        spp1000()) != base
    assert cache.digest(UNIT, spp1000(n_hypernodes=4)) != base
    assert cache.digest(UNIT, spp1000(), seed=7) != base
    other = make_cache(tmp_path, fingerprint="0" * 64)
    assert other.digest(UNIT, spp1000()) != base


def test_digest_depends_on_fault_plan(tmp_path):
    from repro.faults import ring_loss_plan

    cache = make_cache(tmp_path)
    base = cache.digest(UNIT, spp1000())
    with_faults = cache.digest(UNIT, spp1000(),
                               fault_plan=ring_loss_plan(1))
    assert with_faults != base
    assert cache.digest(UNIT, spp1000(),
                        fault_plan=ring_loss_plan(1)) == with_faults


def test_corrupt_entry_reads_as_miss_and_is_removed(tmp_path):
    cache = make_cache(tmp_path)
    digest = cache.digest(UNIT, spp1000())
    cache.put(digest, 1, UNIT)
    path = cache._path(digest)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{truncated")
    with pytest.raises(KeyError):
        cache.get(digest)
    assert not os.path.exists(path)


def test_foreign_schema_entry_is_a_miss(tmp_path):
    cache = make_cache(tmp_path)
    digest = cache.digest(UNIT, spp1000())
    path = cache._path(digest)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": CACHE_SCHEMA + 1, "value": 1}, fh)
    with pytest.raises(KeyError):
        cache.get(digest)


def test_prune_empties_the_store(tmp_path):
    cache = make_cache(tmp_path)
    for i in range(3):
        unit = WorkUnit("fig0", f"k:{i}", {"p": i})
        cache.put(cache.digest(unit, spp1000()), i, unit)
    assert cache.entries() == 3
    assert cache.prune() == 3
    assert cache.entries() == 0


def test_default_cache_root_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_root() == "/tmp/somewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
    assert default_cache_root() == os.path.join("/tmp/xdg", "repro")


def test_default_fingerprint_is_code_fingerprint(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    assert cache.fingerprint == code_fingerprint()


def test_fingerprint_changes_with_source(tmp_path, monkeypatch):
    """The code fingerprint covers every .py file under the package."""
    import repro
    from repro.exec import fingerprint as fp

    src_root = os.path.dirname(os.path.abspath(repro.__file__))
    # hash a copy, touch one file, hash again
    import shutil

    copy = tmp_path / "repro"
    shutil.copytree(src_root, copy)
    fp.clear_fingerprint_cache()
    before = fp.code_fingerprint(str(copy))
    with open(copy / "core" / "canon.py", "a", encoding="utf-8") as fh:
        fh.write("\n# touched\n")
    fp.clear_fingerprint_cache()
    after = fp.code_fingerprint(str(copy))
    fp.clear_fingerprint_cache()
    assert before != after


# -- payload-checksum integrity (cache schema v2) ---------------------------

def test_checksum_corruption_quarantined_and_reexecutable(tmp_path):
    """A well-formed entry whose payload fails its checksum is moved to
    quarantine/, counted, and reads as a miss -- never served."""
    from repro.exec.chaos import corrupt_cache_entry

    cache = make_cache(tmp_path)
    digest = cache.digest(UNIT, spp1000())
    cache.put(digest, {"v": 42}, UNIT)
    path = cache._path(digest)
    assert corrupt_cache_entry(path)
    with pytest.raises(KeyError):
        cache.get(digest)
    assert cache.corrupt == 1
    assert cache.quarantined == 1
    assert not os.path.exists(path)              # no longer served
    assert cache.quarantine_entries() == 1       # preserved for autopsy
    qpath = cache._quarantine_path(digest)
    assert json.load(open(qpath))["value"]["__chaos_corrupted__"] is True
    # re-execution stores a fresh verified entry
    cache.put(digest, {"v": 42}, UNIT)
    assert cache.get(digest) == {"v": 42}
    stats = cache.stats()
    assert stats["corrupt"] == 1 and stats["quarantined"] == 1


def test_entries_carry_payload_checksum(tmp_path):
    import hashlib

    cache = make_cache(tmp_path)
    digest = cache.digest(UNIT, spp1000())
    cache.put(digest, [1, 2.5], UNIT)
    entry = json.load(open(cache._path(digest)))
    assert entry["schema"] == CACHE_SCHEMA == 2
    # SHA-256 of the value's canonical JSON bytes: entries written by
    # earlier builds keep verifying
    assert entry["sha256"] == hashlib.sha256(b"[1,2.5]").hexdigest()


def test_v1_entry_without_checksum_is_a_miss(tmp_path):
    cache = make_cache(tmp_path)
    digest = cache.digest(UNIT, spp1000())
    path = cache._path(digest)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "value": 1}, fh)
    with pytest.raises(KeyError):
        cache.get(digest)
    assert cache.corrupt == 0      # structural, not silent corruption


# -- actionable cache-root validation ---------------------------------------

def test_check_root_rejects_file(tmp_path):
    from repro.exec.cache import CacheRootError

    target = tmp_path / "afile"
    target.write_text("x")
    with pytest.raises(CacheRootError) as excinfo:
        ResultCache(str(target), "f" * 64).check_root()
    message = str(excinfo.value)
    assert str(target) in message
    assert "--cache-dir" in message


def test_check_root_rejects_foreign_directory(tmp_path):
    from repro.exec.cache import CacheRootError

    target = tmp_path / "documents"
    target.mkdir()
    (target / "thesis.txt").write_text("x")
    with pytest.raises(CacheRootError) as excinfo:
        ResultCache(str(target), "f" * 64).check_root()
    message = str(excinfo.value)
    assert "'thesis.txt'" in message
    assert "non-cache files" in message


def test_check_root_accepts_fresh_and_existing_roots(tmp_path):
    cache = make_cache(tmp_path)
    cache.check_root()                       # creates the root
    digest = cache.digest(UNIT, spp1000())
    cache.put(digest, 1, UNIT)
    cache.check_root()                       # existing cache root is fine
    assert os.path.isdir(os.path.join(cache.root, "objects"))


def test_check_root_unwritable_is_actionable(tmp_path, monkeypatch):
    import tempfile as _tempfile

    from repro.exec.cache import CacheRootError

    cache = make_cache(tmp_path)

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(_tempfile, "NamedTemporaryFile", denied)
    with pytest.raises(CacheRootError) as excinfo:
        cache.check_root()
    message = str(excinfo.value)
    assert "not writable" in message and "Permission denied" in message
    assert "--no-cache" in message
