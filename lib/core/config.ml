type algorithm = Fast_match | Simple_match

type t = {
  criteria : Treediff_matching.Criteria.t;
  algorithm : algorithm;
  postprocess : bool;
  cost : Treediff_edit.Cost.t;
  scan_window : int option;
  check : bool;
}

let default =
  {
    criteria = Treediff_matching.Criteria.default;
    algorithm = Fast_match;
    postprocess = true;
    cost = Treediff_edit.Cost.unit;
    scan_window = None;
    check = Treediff_check.Check.env_enabled ();
  }

let with_criteria criteria =
  {
    default with
    criteria;
    cost = Treediff_edit.Cost.with_compare criteria.Treediff_matching.Criteria.compare;
  }

let with_compare compare =
  with_criteria (Treediff_matching.Criteria.make ~compare ())

let with_check check config = { config with check }
