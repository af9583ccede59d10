"""Policy-gradient gain tuning against sub-synchronous control interactions.

Subpackages: sigproc (signal conditioning + oscillation energy), plant
(surrogate resonant grid model), policy (Gaussian MLP with hand-derived
gradients), trainer (episodic policy-gradient loop with gain-bucket
caching), config (TrainConfig and the flat key = value run
configuration), envproto (socket protocol for external simulators), cli.
"""

# one episode kernel, in plant on scipy.signal.lfilter; the benchmark
# still records this flag
USING_COMPILED = False
__version__ = "0.1.0"
__all__ = ["USING_COMPILED", "__version__"]
