"""The first-use import behind fvkit's ``np`` name."""
import importlib
import sys
import threading
import types
import uuid

import pytest

from fvkit._lazy import lazy_import


@pytest.fixture
def probe_module(tmp_path, monkeypatch):
    """Write a throwaway module on tmp_path; return a function that names it.
    Every module written is dropped from sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(tmp_path))

    def write(body):
        name = f"lazy_probe_{uuid.uuid4().hex}"
        (tmp_path / f"{name}.py").write_text(body)
        importlib.invalidate_caches()
        monkeypatch.delitem(sys.modules, name, raising=False)
        return name
    return write


def test_first_read_returns_the_real_object_and_leaves_no_hook():
    import json
    proxy = lazy_import("json")
    assert type(proxy) is not types.ModuleType
    assert proxy.dumps is json.dumps
    assert type(proxy) is types.ModuleType
    assert proxy.loads is json.loads
    with pytest.raises(AttributeError):
        proxy.no_such_name


def test_nothing_enters_sys_modules_until_touched(probe_module):
    name = probe_module("value = 42\n")
    before = dict(sys.modules)
    proxy = lazy_import(name)
    assert sys.modules == before
    assert proxy.value == 42
    assert set(sys.modules) - set(before) == {name}
    assert sys.modules[name] is not proxy


def test_concurrent_first_reads_get_one_object(probe_module):
    # a slow module body keeps the first import in flight while the others read
    name = probe_module("import time\ntime.sleep(0.05)\nmarker = object()\n")
    proxy = lazy_import(name)
    barrier = threading.Barrier(8)
    seen = []

    def read():
        barrier.wait(timeout=10)
        seen.append(proxy.marker)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(seen) == 8
    assert all(m is sys.modules[name].marker for m in seen)
    assert type(proxy) is types.ModuleType


def test_missing_module_raises_on_first_read():
    proxy = lazy_import(f"lazy_missing_{uuid.uuid4().hex}")
    with pytest.raises(ModuleNotFoundError):
        proxy.anything
    assert type(proxy) is not types.ModuleType
