import pytest

from blockrelax import sweep


@pytest.fixture(autouse=True)
def no_pool_across_a_patch(request):
    """Drop the shared process pool before and after every test that patches.

    The pool's workers keep the module state of their fork (``sweep._pool``),
    so a pool forked before a patch would run unpatched code, and one forked
    under it would keep running patched code after the patch is undone.
    """
    patching = "monkeypatch" in request.fixturenames
    if patching and sweep._POOL is not None:
        sweep._drop_pool()
    yield
    if patching and sweep._POOL is not None:
        sweep._drop_pool()
