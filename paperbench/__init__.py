"""Paper-path benchmark: closed-loop ``StreamRuntime`` replays (see run.py)."""
