//! The VNF catalog: per-kind deployment profiles.

use nfv_model::{Demand, ModelError, ServiceRate, Vnf, VnfId, VnfKind};
use serde::{Deserialize, Serialize};

/// Deployment profile of one VNF kind: typical per-instance demand and
/// service rate.
///
/// The numbers are calibrated against the paper's unit system (1 unit =
/// 64-byte packets at 10 kpps; 1 CPU core = 150 units) and the relative
/// compute weight of each middlebox class reported in the NFV energy study
/// the paper cites for calibration (Xu et al., IWQoS'16): lightweight
/// header-rewriting functions (NAT, flow monitor) cost a fraction of a core,
/// payload-inspecting functions (DPI, WAN optimizer) several times more.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VnfProfile {
    /// Per-instance resource demand in capacity units.
    pub demand_units: f64,
    /// Per-instance exponential service rate in packets per second.
    pub service_rate_pps: f64,
}

/// A catalog assigning a [`VnfProfile`] to every [`VnfKind`], used to
/// instantiate VNF sets of any size (the paper sweeps 6–30 VNFs; beyond the
/// nine named kinds the catalog cycles with [`VnfKind::Custom`] variants).
///
/// # Examples
///
/// ```
/// use nfv_workload::VnfCatalog;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let catalog = VnfCatalog::standard();
/// let vnfs = catalog.instantiate(12, &[2, 3])?; // alternate 2 and 3 instances
/// assert_eq!(vnfs.len(), 12);
/// assert_eq!(vnfs[0].instances(), 2);
/// assert_eq!(vnfs[1].instances(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VnfCatalog {
    profiles: Vec<(VnfKind, VnfProfile)>,
}

impl VnfCatalog {
    /// The standard nine-kind catalog with calibrated profiles.
    #[must_use]
    pub fn standard() -> Self {
        let profiles = vec![
            (
                VnfKind::Nat,
                VnfProfile {
                    demand_units: 15.0,
                    service_rate_pps: 120.0,
                },
            ),
            (
                VnfKind::Firewall,
                VnfProfile {
                    demand_units: 30.0,
                    service_rate_pps: 100.0,
                },
            ),
            (
                VnfKind::Ids,
                VnfProfile {
                    demand_units: 60.0,
                    service_rate_pps: 80.0,
                },
            ),
            (
                VnfKind::LoadBalancer,
                VnfProfile {
                    demand_units: 20.0,
                    service_rate_pps: 110.0,
                },
            ),
            (
                VnfKind::WanOptimizer,
                VnfProfile {
                    demand_units: 90.0,
                    service_rate_pps: 60.0,
                },
            ),
            (
                VnfKind::FlowMonitor,
                VnfProfile {
                    demand_units: 10.0,
                    service_rate_pps: 140.0,
                },
            ),
            (
                VnfKind::Ips,
                VnfProfile {
                    demand_units: 70.0,
                    service_rate_pps: 75.0,
                },
            ),
            (
                VnfKind::Dpi,
                VnfProfile {
                    demand_units: 120.0,
                    service_rate_pps: 50.0,
                },
            ),
            (
                VnfKind::ProxyCache,
                VnfProfile {
                    demand_units: 45.0,
                    service_rate_pps: 95.0,
                },
            ),
        ];
        Self { profiles }
    }

    /// Number of distinct kinds in the catalog.
    #[must_use]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profile for `kind`, if present.
    #[must_use]
    pub fn profile(&self, kind: VnfKind) -> Option<VnfProfile> {
        self.profiles
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, p)| *p)
    }

    /// The kind and profile at catalog position `i` (cycling past the end,
    /// with repeats renamed to [`VnfKind::Custom`] so ids stay distinct).
    #[must_use]
    pub fn kind_at(&self, i: usize) -> (VnfKind, VnfProfile) {
        let (kind, profile) = self.profiles[i % self.profiles.len()];
        if i < self.profiles.len() {
            (kind, profile)
        } else {
            (VnfKind::Custom(i as u16), profile)
        }
    }

    /// Instantiates `count` VNFs with ids `0..count`, cycling through the
    /// catalog. `instance_counts` is cycled to assign `M_f` per VNF.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `instance_counts` is empty or contains a
    /// zero (every VNF needs `M_f ≥ 1`).
    pub fn instantiate(
        &self,
        count: usize,
        instance_counts: &[u32],
    ) -> Result<Vec<Vnf>, ModelError> {
        if instance_counts.is_empty() {
            return Err(ModelError::MissingField {
                field: "instance_counts",
            });
        }
        (0..count)
            .map(|i| {
                let (kind, profile) = self.kind_at(i);
                Vnf::builder(VnfId::new(i as u32), kind)
                    .demand_per_instance(Demand::new(profile.demand_units)?)
                    .instances(instance_counts[i % instance_counts.len()])
                    .service_rate(ServiceRate::new(profile.service_rate_pps)?)
                    .build()
            })
            .collect()
    }
}

impl Default for VnfCatalog {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_covers_named_kinds() {
        let catalog = VnfCatalog::standard();
        assert_eq!(catalog.len(), 9);
        for kind in VnfKind::NAMED {
            assert!(
                catalog.profile(kind).is_some(),
                "missing profile for {kind}"
            );
        }
    }

    #[test]
    fn profiles_are_positive() {
        for (_, p) in &VnfCatalog::standard().profiles {
            assert!(p.demand_units > 0.0 && p.service_rate_pps > 0.0);
        }
    }

    #[test]
    fn instantiate_cycles_kinds_and_keeps_ids_distinct() {
        let catalog = VnfCatalog::standard();
        let vnfs = catalog.instantiate(20, &[1]).unwrap();
        assert_eq!(vnfs.len(), 20);
        // Ids are 0..20 in order.
        for (i, vnf) in vnfs.iter().enumerate() {
            assert_eq!(vnf.id().as_usize(), i);
        }
        // Beyond the ninth, kinds become Custom so names stay distinct.
        assert_eq!(vnfs[9].kind(), VnfKind::Custom(9));
        // But the demand profile still cycles.
        assert_eq!(vnfs[9].demand_per_instance(), vnfs[0].demand_per_instance());
    }

    #[test]
    fn instance_counts_cycle() {
        let vnfs = VnfCatalog::standard().instantiate(5, &[1, 2]).unwrap();
        let counts: Vec<u32> = vnfs.iter().map(Vnf::instances).collect();
        assert_eq!(counts, vec![1, 2, 1, 2, 1]);
    }

    #[test]
    fn empty_instance_counts_is_an_error() {
        assert!(VnfCatalog::standard().instantiate(3, &[]).is_err());
    }

    #[test]
    fn zero_instances_surface_model_error() {
        let err = VnfCatalog::standard().instantiate(1, &[0]).unwrap_err();
        assert!(matches!(err, ModelError::NoInstances { .. }));
    }
}
