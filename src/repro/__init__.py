"""VirtualCluster: a multi-tenant framework for cloud container services.

A complete Python reproduction of the ICDCS 2021 paper, including the
Kubernetes substrate it extends.  The public entry point for most users
is :class:`repro.core.VirtualClusterEnv`:

    from repro.core import VirtualClusterEnv

    env = VirtualClusterEnv(num_virtual_nodes=5)
    env.bootstrap()
    tenant = env.run_coroutine(env.create_tenant("acme"))

Every deployment setting is a :class:`repro.config.LatencyConfig` field,
never a constructor switch: ``VirtualClusterEnv(config=DEFAULT_CONFIG.
with_overrides(syncer={"replicas": 2}))`` runs a leader-elected syncer pair.

See README.md for the architecture overview and DESIGN.md for the
paper-to-code map.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
