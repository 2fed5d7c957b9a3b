//! Client-increment scheduling (paper Appendix A, "Client increment strategy").
//!
//! Participants split into three dynamic groups per incremental task:
//! * `U_o` (Old): clients still working solely on previous-domain data;
//! * `U_b` (In-between): clients holding both old- and new-domain data
//!   (`D_m^t = concat(D_m^{t-1}, D_m^t)`, Algorithm 1 line 13);
//! * `U_n` (New): clients with new-domain data only.
//!
//! At each task, 80 % of existing clients transition to the new domain
//! (each at a random round inside the task, giving the gradual transition of
//! Fig. 1b rather than the cliff transition of Fig. 1a), and `increment`
//! brand-new clients join, growing `M = M_o + M_b + M_n` over time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The paper's three participant groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClientGroup {
    /// Works solely on data from previous domains.
    Old,
    /// Holds both the new domain and previous data.
    Between,
    /// Works exclusively on the new domain.
    New,
}

/// Static configuration of the increment protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncrementConfig {
    /// Clients present at task 1 (paper: 20, or 10 for OfficeCaltech10).
    pub initial_clients: usize,
    /// Clients selected per communication round (paper: 10 / 5).
    pub select_per_round: usize,
    /// New clients added at each subsequent task (paper: 2 / 1).
    pub increment_per_task: usize,
    /// Fraction of existing clients that transition each task (paper: 0.8).
    pub transition_fraction: f32,
    /// Communication rounds per task (paper: 30).
    pub rounds_per_task: usize,
}

impl Default for IncrementConfig {
    fn default() -> Self {
        Self {
            initial_clients: 20,
            select_per_round: 10,
            increment_per_task: 2,
            transition_fraction: 0.8,
            rounds_per_task: 30,
        }
    }
}

/// Per-client plan for one task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientPlan {
    /// Global client id.
    pub id: usize,
    /// Task at which the client joined the federation.
    pub joined_task: usize,
    /// `Some(round)` when this client transitions to the new domain during
    /// the current task (becoming `U_b` from that round on); `None` if the
    /// client stays on old data the whole task.
    pub transition_round: Option<usize>,
    /// Whether this client is brand new this task (pure `U_n`).
    pub is_new: bool,
}

impl ClientPlan {
    /// The group this client belongs to at `round` of the current task.
    pub(crate) fn group_at(&self, round: usize) -> ClientGroup {
        if self.is_new {
            ClientGroup::New
        } else {
            match self.transition_round {
                Some(tr) if round >= tr => ClientGroup::Between,
                _ => ClientGroup::Old,
            }
        }
    }

    /// Whether this client receives new-domain data this task.
    pub(crate) fn receives_new_data(&self) -> bool {
        self.is_new || self.transition_round.is_some()
    }
}

/// The full schedule for one task: every active client's plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskSchedule {
    /// Task index (0-based).
    pub task: usize,
    /// Plans for all active clients.
    pub clients: Vec<ClientPlan>,
}

impl TaskSchedule {
    /// Group sizes `(M_o, M_b, M_n)` at `round`.
    pub fn group_sizes(&self, round: usize) -> (usize, usize, usize) {
        let mut o = 0;
        let mut b = 0;
        let mut n = 0;
        for c in &self.clients {
            match c.group_at(round) {
                ClientGroup::Old => o += 1,
                ClientGroup::Between => b += 1,
                ClientGroup::New => n += 1,
            }
        }
        (o, b, n)
    }

    /// Ids of clients that receive new-domain data this task.
    pub(crate) fn new_data_recipients(&self) -> Vec<usize> {
        self.clients
            .iter()
            .filter(|c| c.receives_new_data())
            .map(|c| c.id)
            .collect()
    }
}

/// Builds the deterministic schedule for every task of a run.
///
/// Task 0 is special: every initial client is `New` (first domain for all).
///
/// # Panics
///
/// Panics if `transition_fraction` is outside `[0, 1]` or
/// `select_per_round == 0`.
pub fn build_schedule(cfg: &IncrementConfig, num_tasks: usize, seed: u64) -> Vec<TaskSchedule> {
    assert!(
        (0.0..=1.0).contains(&cfg.transition_fraction),
        "transition fraction must be in [0,1]"
    );
    assert!(
        cfg.select_per_round > 0,
        "must select at least one client per round"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedules = Vec::with_capacity(num_tasks);
    // joined_task per client id.
    let mut joined: Vec<usize> = vec![0; cfg.initial_clients];

    for task in 0..num_tasks {
        if task > 0 {
            for _ in 0..cfg.increment_per_task {
                joined.push(task);
            }
        }
        let mut clients: Vec<ClientPlan> = Vec::with_capacity(joined.len());
        // Existing clients (joined before this task) transition with prob 0.8,
        // exactly `round(frac * existing)` of them.
        let existing: Vec<usize> = (0..joined.len()).filter(|&id| joined[id] < task).collect();
        let mut to_transition: Vec<usize> = existing.clone();
        // Deterministic partial shuffle, then take the first `k`.
        for i in (1..to_transition.len()).rev() {
            let j = rng.gen_range(0..=i);
            to_transition.swap(i, j);
        }
        let k = ((existing.len() as f32) * cfg.transition_fraction).round() as usize;
        to_transition.truncate(k);

        for (id, &joined_task) in joined.iter().enumerate() {
            let is_new = joined_task == task;
            let transition_round = if !is_new && to_transition.contains(&id) {
                // Transition somewhere in the first half of the task so the
                // new domain actually gets trained on.
                Some(rng.gen_range(0..(cfg.rounds_per_task / 2).max(1)))
            } else {
                None
            };
            clients.push(ClientPlan {
                id,
                joined_task,
                transition_round,
                is_new,
            });
        }
        schedules.push(TaskSchedule { task, clients });
    }
    schedules
}

/// Samples `select_per_round` distinct active clients for a round.
pub(crate) fn select_clients(
    schedule: &TaskSchedule,
    count: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut ids: Vec<usize> = schedule.clients.iter().map(|c| c.id).collect();
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    ids.truncate(count.min(ids.len()));
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> IncrementConfig {
        IncrementConfig {
            initial_clients: 10,
            select_per_round: 5,
            increment_per_task: 2,
            transition_fraction: 0.8,
            rounds_per_task: 10,
        }
    }

    #[test]
    fn client_counts_grow() {
        let s = build_schedule(&cfg(), 4, 1);
        assert_eq!(s[0].clients.len(), 10);
        assert_eq!(s[1].clients.len(), 12);
        assert_eq!(s[3].clients.len(), 16);
    }

    #[test]
    fn task0_everyone_is_new() {
        let s = build_schedule(&cfg(), 3, 2);
        assert!(s[0].clients.iter().all(|c| c.is_new));
        let (o, b, n) = s[0].group_sizes(0);
        assert_eq!((o, b, n), (0, 0, 10));
    }

    #[test]
    fn m_equals_mo_plus_mb_plus_mn() {
        let s = build_schedule(&cfg(), 4, 3);
        for task in &s {
            for round in [0, 5, 9] {
                let (o, b, n) = task.group_sizes(round);
                assert_eq!(o + b + n, task.clients.len());
            }
        }
    }

    #[test]
    fn eighty_percent_transition() {
        let s = build_schedule(&cfg(), 2, 4);
        let transitioned = s[1]
            .clients
            .iter()
            .filter(|c| c.transition_round.is_some())
            .count();
        // 10 existing clients * 0.8 = 8.
        assert_eq!(transitioned, 8);
        let new = s[1].clients.iter().filter(|c| c.is_new).count();
        assert_eq!(new, 2);
    }

    #[test]
    fn transitions_become_between_group() {
        let s = build_schedule(&cfg(), 2, 5);
        let c = s[1]
            .clients
            .iter()
            .find(|c| c.transition_round.is_some())
            .expect("someone transitions");
        let tr = c.transition_round.unwrap();
        assert_eq!(
            c.group_at(tr.saturating_sub(1).min(tr)),
            if tr == 0 {
                ClientGroup::Between
            } else {
                ClientGroup::Old
            }
        );
        assert_eq!(c.group_at(tr), ClientGroup::Between);
        assert_eq!(c.group_at(cfg().rounds_per_task - 1), ClientGroup::Between);
    }

    #[test]
    fn new_data_recipients_cover_new_and_transitioning() {
        let s = build_schedule(&cfg(), 2, 6);
        let r = s[1].new_data_recipients();
        assert_eq!(r.len(), 8 + 2);
    }

    #[test]
    fn selection_is_distinct_and_bounded() {
        let s = build_schedule(&cfg(), 1, 7);
        let mut rng = StdRng::seed_from_u64(0);
        let sel = select_clients(&s[0], 5, &mut rng);
        assert_eq!(sel.len(), 5);
        let mut sorted = sel.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "duplicate selection");
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = build_schedule(&cfg(), 3, 42);
        let b = build_schedule(&cfg(), 3, 42);
        for (x, y) in a.iter().zip(&b) {
            for (cx, cy) in x.clients.iter().zip(&y.clients) {
                assert_eq!(cx.transition_round, cy.transition_round);
            }
        }
    }
}
