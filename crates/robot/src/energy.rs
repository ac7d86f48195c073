//! Robot motion-energy model.
//!
//! The paper measures motion overhead in metres because "the robots'
//! traveling distance ... reflects the energy consumed" (§2). This
//! module makes that relationship explicit using the Pioneer 3DX
//! measurements from Mei et al., *A Case Study of Mobile Robot's Energy
//! Consumption and Conservation Techniques* (ICAR 2005) — reference \[9\]
//! of the paper: an idle/hotel load of roughly 13 W (embedded computer,
//! sonar, microcontroller) plus a motion load that grows roughly
//! linearly with speed.

/// Power model `P(v) = idle_w + k_motion * v` for a wheeled robot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Hotel load drawn whether or not the robot moves, in watts.
    pub idle_w: f64,
    /// Incremental motion power per unit speed, in watts per (m/s).
    pub k_motion: f64,
}

impl Default for EnergyModel {
    /// Pioneer 3DX-like constants: ~13 W hotel load, ~11 W of extra
    /// draw at the paper's 1 m/s travel speed.
    fn default() -> Self {
        EnergyModel {
            idle_w: 13.0,
            k_motion: 11.0,
        }
    }
}

impl EnergyModel {
    /// Instantaneous power at travel speed `v` (m/s), in watts.
    pub fn power_at(&self, v: f64) -> f64 {
        assert!(v >= 0.0, "speed cannot be negative");
        self.idle_w + self.k_motion * v
    }

    /// Energy to travel `distance` metres at speed `v`, in joules
    /// (includes the hotel load for the travel duration).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not positive.
    pub fn travel_energy(&self, distance: f64, v: f64) -> f64 {
        assert!(v > 0.0, "speed must be positive");
        assert!(distance >= 0.0, "distance cannot be negative");
        self.power_at(v) * (distance / v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_composition() {
        let m = EnergyModel::default();
        assert_eq!(m.power_at(0.0), 13.0);
        assert_eq!(m.power_at(1.0), 24.0);
        assert!(m.power_at(2.0) > m.power_at(1.0));
    }

    #[test]
    fn travel_energy_proportional_to_distance() {
        let m = EnergyModel::default();
        let e100 = m.travel_energy(100.0, 1.0);
        let e200 = m.travel_energy(200.0, 1.0);
        assert!((e200 - 2.0 * e100).abs() < 1e-9);
        // 100 m at 1 m/s = 100 s at 24 W = 2400 J.
        assert!((e100 - 2400.0).abs() < 1e-9);
    }

    #[test]
    fn faster_travel_saves_hotel_energy() {
        // Driving faster costs more motion power but amortizes the hotel
        // load over less time; with a linear motion term the total is
        // identical motion energy + smaller hotel share.
        let m = EnergyModel::default();
        let slow = m.travel_energy(100.0, 0.5);
        let fast = m.travel_energy(100.0, 2.0);
        assert!(fast < slow, "hotel load dominates at low speed");
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn travel_zero_speed_rejected() {
        EnergyModel::default().travel_energy(1.0, 0.0);
    }
}
