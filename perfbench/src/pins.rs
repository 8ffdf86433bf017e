//! Outputs pinned per (workload, seed).  A change that only makes the
//! program faster must reproduce every value here exactly; a run on a pinned
//! seed that differs fails.  Seed 7 is the default seed and seed 1013 the
//! held-out seed; seeds 0–15 are pinned too.

/// The checked prefix of a campaign workload.
#[derive(Debug, Clone, Copy)]
pub struct CampaignPin {
    pub workload: &'static str,
    pub seed: u64,
    /// Simulated cycles over the prefix (`ScenarioOutcome::simulated_cycles`).
    pub cycles: u64,
    /// Messages observed (`ConformanceReport::observed().count`).
    pub observed: u64,
    /// Messages and flits delivered, from the traced run's kernel replay.
    pub messages_delivered: u64,
    pub flits_delivered: u64,
    /// FNV-1a of the prefix's `ConformanceReport::render_json`.
    pub digest: u64,
}

/// The final states of the first four `dse-incremental` restarts (the
/// checked prefix).
#[derive(Debug, Clone, Copy)]
pub struct DsePin {
    pub seed: u64,
    /// FNV-1a of the restarts' `(round-trip WCTT, buffer flits, accepted)`.
    pub digest: u64,
    /// Candidates accepted over the four restarts.
    pub accepted: u64,
}

pub fn campaign(workload: &str, seed: u64) -> Option<&'static CampaignPin> {
    CAMPAIGN
        .iter()
        .find(|p| p.workload == workload && p.seed == seed)
}

pub fn dse(seed: u64) -> Option<&'static DsePin> {
    DSE.iter().find(|p| p.seed == seed)
}

#[rustfmt::skip]
const CAMPAIGN: &[CampaignPin] = &[
    CampaignPin { workload: "closed-loop", seed: 0, cycles: 710160, observed: 464336, messages_delivered: 464336, flits_delivered: 943150, digest: 0xff0bb8bf1171b8b6 },
    CampaignPin { workload: "closed-loop", seed: 1, cycles: 780308, observed: 478660, messages_delivered: 478660, flits_delivered: 1035112, digest: 0xd94e58b381039bd3 },
    CampaignPin { workload: "closed-loop", seed: 2, cycles: 821578, observed: 557601, messages_delivered: 557601, flits_delivered: 1073485, digest: 0x853875b1bcd4ca7b },
    CampaignPin { workload: "closed-loop", seed: 3, cycles: 684686, observed: 544269, messages_delivered: 544269, flits_delivered: 944749, digest: 0x2718538a30d9f2dc },
    CampaignPin { workload: "closed-loop", seed: 4, cycles: 704806, observed: 458524, messages_delivered: 458524, flits_delivered: 861479, digest: 0x223ab5a0cf4d98bc },
    CampaignPin { workload: "closed-loop", seed: 5, cycles: 813406, observed: 594989, messages_delivered: 594989, flits_delivered: 1159863, digest: 0xcefbc43caf271e89 },
    CampaignPin { workload: "closed-loop", seed: 6, cycles: 695448, observed: 495245, messages_delivered: 495245, flits_delivered: 920775, digest: 0xe08791670e3fba06 },
    CampaignPin { workload: "closed-loop", seed: 7, cycles: 702095, observed: 491330, messages_delivered: 491330, flits_delivered: 955064, digest: 0xd1f7a518667242ee },
    CampaignPin { workload: "closed-loop", seed: 8, cycles: 787708, observed: 622398, messages_delivered: 622398, flits_delivered: 1219082, digest: 0x611db032d78b2add },
    CampaignPin { workload: "closed-loop", seed: 9, cycles: 722608, observed: 448927, messages_delivered: 448927, flits_delivered: 877375, digest: 0xcdb8a118cd3d4a05 },
    CampaignPin { workload: "closed-loop", seed: 10, cycles: 764678, observed: 523909, messages_delivered: 523909, flits_delivered: 1090396, digest: 0x3dbee62ba75246ce },
    CampaignPin { workload: "closed-loop", seed: 11, cycles: 819019, observed: 527488, messages_delivered: 527488, flits_delivered: 982238, digest: 0xf02571d30c1ffb88 },
    CampaignPin { workload: "closed-loop", seed: 12, cycles: 663519, observed: 525188, messages_delivered: 525188, flits_delivered: 911653, digest: 0xa82d06e8f8374c64 },
    CampaignPin { workload: "closed-loop", seed: 13, cycles: 781277, observed: 600652, messages_delivered: 600652, flits_delivered: 1073651, digest: 0x03bd65bd0a5fc8b2 },
    CampaignPin { workload: "closed-loop", seed: 14, cycles: 668740, observed: 519221, messages_delivered: 519221, flits_delivered: 867017, digest: 0xe0591eb883e31490 },
    CampaignPin { workload: "closed-loop", seed: 15, cycles: 763404, observed: 512198, messages_delivered: 512198, flits_delivered: 986970, digest: 0x4966246ce36d34b4 },
    CampaignPin { workload: "closed-loop", seed: 1013, cycles: 812706, observed: 609932, messages_delivered: 609932, flits_delivered: 1112122, digest: 0x416d4ad19539d522 },
    CampaignPin { workload: "vc-preemptive", seed: 0, cycles: 708759, observed: 483620, messages_delivered: 483620, flits_delivered: 929060, digest: 0x54940c5bc835ebdc },
    CampaignPin { workload: "vc-preemptive", seed: 1, cycles: 778692, observed: 513980, messages_delivered: 513980, flits_delivered: 997452, digest: 0x756db8b620c75c80 },
    CampaignPin { workload: "vc-preemptive", seed: 2, cycles: 820673, observed: 603443, messages_delivered: 603443, flits_delivered: 1040361, digest: 0x3742a58450b88d73 },
    CampaignPin { workload: "vc-preemptive", seed: 3, cycles: 683925, observed: 568870, messages_delivered: 568870, flits_delivered: 914848, digest: 0xb18912341f7b2788 },
    CampaignPin { workload: "vc-preemptive", seed: 4, cycles: 702477, observed: 500337, messages_delivered: 500337, flits_delivered: 828766, digest: 0xff157903971dc2c8 },
    CampaignPin { workload: "vc-preemptive", seed: 5, cycles: 811740, observed: 637305, messages_delivered: 637305, flits_delivered: 1107538, digest: 0xbce219e2243ec6fb },
    CampaignPin { workload: "vc-preemptive", seed: 6, cycles: 694584, observed: 553064, messages_delivered: 553064, flits_delivered: 872809, digest: 0x058f3c6d92e9b031 },
    CampaignPin { workload: "vc-preemptive", seed: 7, cycles: 700498, observed: 544171, messages_delivered: 544171, flits_delivered: 922998, digest: 0x8f9f0389e25b7591 },
    CampaignPin { workload: "vc-preemptive", seed: 8, cycles: 786446, observed: 655101, messages_delivered: 655101, flits_delivered: 1184750, digest: 0x8afe3d9b2b506561 },
    CampaignPin { workload: "vc-preemptive", seed: 9, cycles: 721568, observed: 475017, messages_delivered: 475017, flits_delivered: 858185, digest: 0xcb64073f14f21201 },
    CampaignPin { workload: "vc-preemptive", seed: 10, cycles: 763271, observed: 551442, messages_delivered: 551442, flits_delivered: 1050573, digest: 0xfc4297ca19a81339 },
    CampaignPin { workload: "vc-preemptive", seed: 11, cycles: 818261, observed: 563747, messages_delivered: 563747, flits_delivered: 951563, digest: 0xb9e1ee5c6f3b1901 },
    CampaignPin { workload: "vc-preemptive", seed: 12, cycles: 662428, observed: 564056, messages_delivered: 564056, flits_delivered: 877755, digest: 0xab0f83d4e59ccb42 },
    CampaignPin { workload: "vc-preemptive", seed: 13, cycles: 779252, observed: 635526, messages_delivered: 635526, flits_delivered: 1050545, digest: 0xc17eaaf039353508 },
    CampaignPin { workload: "vc-preemptive", seed: 14, cycles: 667672, observed: 544228, messages_delivered: 544228, flits_delivered: 842753, digest: 0xf3f84a1496099dda },
    CampaignPin { workload: "vc-preemptive", seed: 15, cycles: 762277, observed: 541035, messages_delivered: 541035, flits_delivered: 964219, digest: 0xa47eedc4f1a53fc6 },
    CampaignPin { workload: "vc-preemptive", seed: 1013, cycles: 811746, observed: 649598, messages_delivered: 649598, flits_delivered: 1082992, digest: 0x172023624ed1a530 },
    CampaignPin { workload: "bursty-open-loop", seed: 0, cycles: 4989285, observed: 204655, messages_delivered: 204655, flits_delivered: 393173, digest: 0x21e4e297010393b7 },
    CampaignPin { workload: "bursty-open-loop", seed: 1, cycles: 5078158, observed: 210445, messages_delivered: 210445, flits_delivered: 418893, digest: 0x72338a8c0dfb38b4 },
    CampaignPin { workload: "bursty-open-loop", seed: 2, cycles: 4742453, observed: 207593, messages_delivered: 207593, flits_delivered: 402223, digest: 0xf947a19d1ba485bf },
    CampaignPin { workload: "bursty-open-loop", seed: 3, cycles: 5258452, observed: 218761, messages_delivered: 218761, flits_delivered: 436145, digest: 0x03e54875e9d86e9d },
    CampaignPin { workload: "bursty-open-loop", seed: 4, cycles: 5041887, observed: 218746, messages_delivered: 218746, flits_delivered: 428798, digest: 0x0d7121e1fd391be8 },
    CampaignPin { workload: "bursty-open-loop", seed: 5, cycles: 4708136, observed: 205024, messages_delivered: 205024, flits_delivered: 398871, digest: 0x4ead230e9b674c5e },
    CampaignPin { workload: "bursty-open-loop", seed: 6, cycles: 4748079, observed: 211342, messages_delivered: 211342, flits_delivered: 428105, digest: 0xf89e8839ea0b8d4b },
    CampaignPin { workload: "bursty-open-loop", seed: 7, cycles: 5088957, observed: 213834, messages_delivered: 213834, flits_delivered: 438976, digest: 0x414e6066452b745c },
    CampaignPin { workload: "bursty-open-loop", seed: 8, cycles: 5166371, observed: 212541, messages_delivered: 212541, flits_delivered: 416073, digest: 0xd23a02e7ff0ceb50 },
    CampaignPin { workload: "bursty-open-loop", seed: 9, cycles: 4977490, observed: 208407, messages_delivered: 208407, flits_delivered: 419446, digest: 0x1e7e8b623fb1ef08 },
    CampaignPin { workload: "bursty-open-loop", seed: 10, cycles: 4774861, observed: 203813, messages_delivered: 203813, flits_delivered: 400156, digest: 0xeb539322451f3216 },
    CampaignPin { workload: "bursty-open-loop", seed: 11, cycles: 4996160, observed: 211022, messages_delivered: 211022, flits_delivered: 412911, digest: 0x1d853477c103663e },
    CampaignPin { workload: "bursty-open-loop", seed: 12, cycles: 5039584, observed: 208410, messages_delivered: 208410, flits_delivered: 411884, digest: 0xea49f14cee2fbde3 },
    CampaignPin { workload: "bursty-open-loop", seed: 13, cycles: 4914996, observed: 211796, messages_delivered: 211796, flits_delivered: 411258, digest: 0x1d987d12521d5c8a },
    CampaignPin { workload: "bursty-open-loop", seed: 14, cycles: 5108041, observed: 221980, messages_delivered: 221980, flits_delivered: 434611, digest: 0x19b822df46c217bb },
    CampaignPin { workload: "bursty-open-loop", seed: 15, cycles: 4939746, observed: 207045, messages_delivered: 207045, flits_delivered: 434868, digest: 0x45f6b166df8df187 },
    CampaignPin { workload: "bursty-open-loop", seed: 1013, cycles: 4867515, observed: 208308, messages_delivered: 208308, flits_delivered: 416454, digest: 0xff76ec55848c7bfd },
];

#[rustfmt::skip]
const DSE: &[DsePin] = &[
    DsePin { seed: 0, digest: 0x6990480d88726337, accepted: 4734 },
    DsePin { seed: 1, digest: 0x8182830f445f2108, accepted: 5019 },
    DsePin { seed: 2, digest: 0x724dea5da3e7eb23, accepted: 4624 },
    DsePin { seed: 3, digest: 0x7dc04e42b86a70e4, accepted: 4936 },
    DsePin { seed: 4, digest: 0x7c0a71935baf8e3d, accepted: 4866 },
    DsePin { seed: 5, digest: 0xac416f5c8051660e, accepted: 4875 },
    DsePin { seed: 6, digest: 0x55cbcf165d908984, accepted: 4558 },
    DsePin { seed: 7, digest: 0x6cedaad07c1638fa, accepted: 4812 },
    DsePin { seed: 8, digest: 0x2c5fd0b7d6c78339, accepted: 4737 },
    DsePin { seed: 9, digest: 0x0fb01299a20190ae, accepted: 4791 },
    DsePin { seed: 10, digest: 0x78e6549d7fdad080, accepted: 4772 },
    DsePin { seed: 11, digest: 0xc14182bccbd98b28, accepted: 5006 },
    DsePin { seed: 12, digest: 0x701313a8e68502e1, accepted: 4970 },
    DsePin { seed: 13, digest: 0x601ea648b82a8096, accepted: 4955 },
    DsePin { seed: 14, digest: 0x1832879ebf31b06f, accepted: 4445 },
    DsePin { seed: 15, digest: 0x0506dd82fd7cc164, accepted: 5070 },
    DsePin { seed: 1013, digest: 0xef223468c88cf3b5, accepted: 5013 },
];
