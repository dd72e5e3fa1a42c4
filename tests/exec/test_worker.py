"""Worker-side execution: what one task leaves behind in its process."""

import gc
import weakref

import repro.exec.worker as worker
from repro.apps.adpcm import AdpcmApp
from repro.apps.base import AppScale
from repro.exec import TaskSpec, execute_task


def test_task_app_and_its_payload_memos_die_with_the_task(monkeypatch):
    # The per-app payload memos (ADPCM _enc_cache/_dec_cache, MJPEG
    # _stripe_cache/_decode_cache) live on the application object.
    # build_app makes a fresh one per task, so the memos cannot grow
    # across the tasks of a long-lived pool worker.
    built = []
    real_build = worker.build_app

    def tracking_build(spec):
        app = real_build(spec)
        built.append((weakref.ref(app), app._enc_cache))
        return app

    monkeypatch.setattr(worker, "build_app", tracking_build)
    app = AdpcmApp(AppScale(), seed=1)
    result = execute_task(TaskSpec.duplicated(app, 20, 1,
                                              sizing=app.sizing()))
    assert result.ok
    (app_ref, enc_cache), = built
    assert enc_cache  # the memo was in use during the run
    del enc_cache, built
    gc.collect()
    assert app_ref() is None
