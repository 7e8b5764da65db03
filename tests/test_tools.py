"""Tests for the CLI tools (sst_dump, dek_audit, repair)."""

from repro.crypto.cipher import generate_key
from repro.env.local import LocalEnv
from repro.lsm.db import DB
from repro.lsm.filecrypto import SingleKeyCryptoProvider
from repro.lsm.options import Options
from repro.tools import dek_audit, sst_dump


def _make_local_db(tmp_path, provider=None, n=300):
    env = LocalEnv()
    path = str(tmp_path / "db")
    env.mkdirs(path)
    options = Options(
        env=env,
        write_buffer_size=4 * 1024,
        block_size=1024,
        crypto_provider=provider,
    )
    db = DB(path, options)
    for i in range(n):
        db.put(b"key-%04d" % i, b"value-%04d" % i)
    db.flush()
    db.close()
    return env, path


def test_sst_dump_plaintext(tmp_path, capsys):
    env, path = _make_local_db(tmp_path)
    sst = next(n for n in env.list_dir(path) if n.endswith(".sst"))
    rc = sst_dump.main(["--scan", "--limit", "3", f"{path}/{sst}"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kind       : sst" in out
    assert "format     : v3" in out
    assert "plaintext" in out
    assert "num_entries" in out
    assert "PUT" in out


def test_sst_dump_encrypted_envelope_only(tmp_path, capsys):
    key = generate_key("shake-ctr")
    provider = SingleKeyCryptoProvider("shake-ctr", key, dek_id="dek-dump")
    env, path = _make_local_db(tmp_path, provider=provider)
    sst = next(n for n in env.list_dir(path) if n.endswith(".sst"))
    rc = sst_dump.main([f"{path}/{sst}"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dek_id     : dek-dump" in out
    assert "pass --key" in out
    # With the key, properties become readable.
    rc = sst_dump.main(["--key", key.hex(), f"{path}/{sst}"])
    out = capsys.readouterr().out
    assert "num_entries" in out


def test_dek_audit_clean_encrypted_db(tmp_path, capsys):
    provider = SingleKeyCryptoProvider(
        "shake-ctr", generate_key("shake-ctr")
    )
    env, path = _make_local_db(tmp_path, provider=provider)
    rc = dek_audit.main([path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK: all user-data files encrypted" in out
    assert "shared by multiple files" in out  # single-DEK design note


def test_dek_audit_flags_plaintext(tmp_path, capsys):
    env, path = _make_local_db(tmp_path)  # no encryption
    rc = dek_audit.main([path])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FINDING: plaintext user-data files" in out


def test_repair_cli(tmp_path, capsys):
    from repro.tools import repair as repair_cli

    env, path = _make_local_db(tmp_path)
    # Destroy the metadata, then repair through the CLI.
    import os

    for name in list(env.list_dir(path)):
        if name.startswith("MANIFEST") or name == "CURRENT":
            os.remove(f"{path}/{name}")
    rc = repair_cli.main([path])
    assert rc == 0
    assert "fresh MANIFEST written" in capsys.readouterr().out
    db = DB(path, Options(env=env))
    try:
        assert db.get(b"key-0001") == b"value-0001"
    finally:
        db.close()


def test_dek_audit_report_structure(tmp_path):
    env, path = _make_local_db(tmp_path)
    report = dek_audit.audit_directory(env, path)
    kinds = {row["kind"] for row in report["rows"] if "kind" in row}
    assert {"sst", "wal", "manifest"} <= kinds
    assert not report["duplicate_key_nonce_pairs"]
