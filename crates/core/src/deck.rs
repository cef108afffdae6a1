//! Deck analysis-card → solver-options mapping.
//!
//! The single source of truth for how a parsed SPICE deck's `.tran` cards
//! and `.options reltol` become [`TransientOptions`]. Every deck driver —
//! `exi-cli run`/`sweep` and the `exi-serve` daemon — goes through
//! [`analysis_options`], which is what makes a waveform obtained through
//! any of them bit-identical to the others (and to the generator-built
//! sessions the round-trip tests compare against).

use exi_netlist::{Analysis, Deck};

use crate::options::TransientOptions;

/// Maps a `.tran <step> <stop> [hmax]` card to [`TransientOptions`]: `step`
/// becomes the initial step, `stop` the interval end, and `hmax` (when
/// given) overrides the default `stop / 10` step ceiling. All other knobs
/// keep their defaults — the deck-vs-generator bit-identity tests rely on
/// this mapping being the single source of truth.
fn tran_options(step: f64, stop: f64, h_max: Option<f64>) -> TransientOptions {
    let mut options = TransientOptions::new(stop, step);
    if let Some(h) = h_max {
        options.h_max = h;
    }
    options
}

/// The [`TransientOptions`] a deck's analysis card runs with: a `.tran
/// <step> <stop> [hmax]` card's `step` is the initial step, `stop` the
/// interval end and `hmax` (when given) the step ceiling in place of
/// `stop / 10`; the deck's `.options reltol` is the error budget. `None`
/// for non-transient cards.
pub fn analysis_options(deck: &Deck, analysis: &Analysis) -> Option<TransientOptions> {
    match analysis {
        Analysis::Tran { step, stop, h_max } => {
            let mut options = tran_options(*step, *stop, *h_max);
            if let Some(reltol) = deck.reltol {
                options.error_budget = reltol;
            }
            Some(options)
        }
        Analysis::OperatingPoint => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exi_netlist::parse_deck;

    #[test]
    fn tran_options_mapping_matches_the_session_constructor() {
        let plain = tran_options(1e-12, 5e-10, None);
        assert_eq!(plain, TransientOptions::new(5e-10, 1e-12));
        let capped = tran_options(1e-12, 5e-10, Some(2e-11));
        assert_eq!(capped.h_max, 2e-11);
        assert_eq!(
            TransientOptions {
                h_max: 2e-11,
                ..TransientOptions::new(5e-10, 1e-12)
            },
            capped
        );
    }

    #[test]
    fn reltol_card_becomes_the_error_budget() {
        let deck = parse_deck(
            "V1 a 0 DC 1\n\
             R1 a b 1k\n\
             C1 b 0 1f\n\
             .options reltol=1e-4\n\
             .tran 1p 500p\n",
        )
        .unwrap();
        let options = analysis_options(&deck, &deck.analyses[0]).unwrap();
        assert_eq!(options.error_budget, 1e-4);
        assert_eq!(options.h_init, 1e-12);
        assert_eq!(options.t_stop, 5e-10);
    }

    #[test]
    fn op_cards_map_to_no_transient_options() {
        let deck = parse_deck(
            "V1 a 0 DC 1\n\
             R1 a 0 1k\n\
             .op\n",
        )
        .unwrap();
        assert_eq!(analysis_options(&deck, &deck.analyses[0]), None);
    }
}
